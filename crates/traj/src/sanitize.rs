//! Ingestion sanitization: detect, repair or quarantine corrupted
//! trajectory data instead of aborting the whole run.
//!
//! Real GPS feeds carry faults the paper's clean simulator never emits:
//! duplicated fixes (stale retransmissions), out-of-order fixes, teleport
//! spikes from multipath reflections, long dropout gaps and truncated
//! uploads. [`Sanitizer`] screens raw fixes *before* [`Trajectory`]
//! construction and applies one of three [`ErrorPolicy`]s:
//!
//! * [`ErrorPolicy::Strict`] — today's fail-fast behaviour: the first
//!   invalid trajectory aborts ingestion with an error. The default.
//! * [`ErrorPolicy::Skip`] — any trajectory showing an anomaly is dropped
//!   whole and recorded for quarantine; everything else proceeds.
//! * [`ErrorPolicy::Repair`] — anomalies are repaired in place: exact and
//!   stale duplicates are dropped, out-of-order fixes are reinserted
//!   within a bounded window, teleport spikes are clamped back to a
//!   plausible speed, and over-long gaps split the trajectory. Only
//!   trajectories left with fewer than two usable points are quarantined.
//!
//! Every decision is reported per trajectory ([`SanitizeReport`]) and in
//! aggregate ([`SanitizeSummary`]); rejected trajectories retain their
//! raw fixes so [`write_quarantine`] can persist them for offline triage.

use crate::dataset::Dataset;
use crate::error::TrajError;
use crate::trajectory::{Trajectory, TrajectoryId};
use neat_rnet::{Point, RoadLocation, SegmentId};
use std::fmt;
use std::io::{BufRead, Write};
use std::str::FromStr;

/// One raw GPS fix as parsed or generated, before any validation. Unlike
/// [`RoadLocation`] sequences inside a [`Trajectory`], raw fixes may be
/// out of order, duplicated or otherwise corrupt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RawFix {
    /// Trajectory the fix claims to belong to.
    pub trid: u64,
    /// Road segment the fix claims to lie on.
    pub segment: SegmentId,
    /// Reported position.
    pub position: Point,
    /// Reported timestamp (seconds).
    pub time: f64,
}

impl RawFix {
    /// Builds a raw fix.
    pub fn new(trid: u64, segment: SegmentId, position: Point, time: f64) -> Self {
        RawFix {
            trid,
            segment,
            position,
            time,
        }
    }

    /// Converts to a [`RoadLocation`] (dropping the trajectory id).
    pub fn location(&self) -> RoadLocation {
        RoadLocation::new(self.segment, self.position, self.time)
    }
}

/// How ingestion reacts to per-trajectory faults.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ErrorPolicy {
    /// Fail fast on the first invalid trajectory (current behaviour).
    #[default]
    Strict,
    /// Drop faulty trajectories whole; keep the rest.
    Skip,
    /// Repair what can be repaired; drop only the unrepairable.
    Repair,
}

impl ErrorPolicy {
    /// CLI-facing name (`fail` / `skip` / `repair`).
    pub fn name(self) -> &'static str {
        match self {
            ErrorPolicy::Strict => "fail",
            ErrorPolicy::Skip => "skip",
            ErrorPolicy::Repair => "repair",
        }
    }
}

impl FromStr for ErrorPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, String> {
        match s {
            "fail" | "strict" => Ok(ErrorPolicy::Strict),
            "skip" => Ok(ErrorPolicy::Skip),
            "repair" => Ok(ErrorPolicy::Repair),
            other => Err(format!(
                "unknown error policy `{other}` (expected fail, skip or repair)"
            )),
        }
    }
}

/// Sanitizer tuning. The defaults are loose enough that clean simulator
/// output sails through untouched under every policy.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeConfig {
    /// Active policy.
    pub policy: ErrorPolicy,
    /// Fastest plausible straight-line speed between consecutive fixes;
    /// anything above is a teleport spike. 70 m/s ≈ 250 km/h.
    pub max_speed_mps: f64,
    /// Longest tolerated gap between consecutive fixes before the
    /// trajectory is considered interrupted (split under Repair).
    pub max_gap_s: f64,
    /// How far back (in fixes) an out-of-order fix may be reinserted
    /// under Repair; older fixes are dropped as unrecoverable.
    pub reorder_window: usize,
    /// Two fixes at the identical position within this many seconds are
    /// duplicates (covers stale retransmissions with perturbed clocks).
    pub dedup_window_s: f64,
}

impl Default for SanitizeConfig {
    fn default() -> Self {
        SanitizeConfig {
            policy: ErrorPolicy::Strict,
            max_speed_mps: 70.0,
            max_gap_s: 300.0,
            reorder_window: 8,
            dedup_window_s: 2.0,
        }
    }
}

impl SanitizeConfig {
    /// Default tuning under the given policy.
    pub fn with_policy(policy: ErrorPolicy) -> Self {
        SanitizeConfig {
            policy,
            ..SanitizeConfig::default()
        }
    }
}

/// One detected data fault, positioned by fix index within its
/// trajectory's raw fix sequence.
#[derive(Debug, Clone, PartialEq)]
pub enum Anomaly {
    /// Timestamp goes backwards at this fix.
    OutOfOrder {
        /// Index of the offending fix.
        index: usize,
    },
    /// Same position as the previous fix within the dedup window.
    Duplicate {
        /// Index of the duplicated fix.
        index: usize,
    },
    /// Implied straight-line speed exceeds the plausible maximum.
    SpeedSpike {
        /// Index of the spiking fix.
        index: usize,
        /// Implied speed in m/s (`f64::INFINITY` for a zero-time jump).
        speed_mps: f64,
    },
    /// Time gap longer than `max_gap_s`.
    LargeGap {
        /// Index of the fix after the gap.
        index: usize,
        /// Gap duration in seconds.
        gap_s: f64,
    },
    /// Fewer than two fixes — no movement to describe.
    TooFewPoints {
        /// Number of fixes present.
        got: usize,
    },
}

impl fmt::Display for Anomaly {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Anomaly::OutOfOrder { index } => write!(f, "out-of-order fix at {index}"),
            Anomaly::Duplicate { index } => write!(f, "duplicate fix at {index}"),
            Anomaly::SpeedSpike { index, speed_mps } => {
                write!(f, "speed spike at {index} ({speed_mps:.0} m/s)")
            }
            Anomaly::LargeGap { index, gap_s } => {
                write!(f, "gap of {gap_s:.0}s before fix {index}")
            }
            Anomaly::TooFewPoints { got } => write!(f, "only {got} fix(es)"),
        }
    }
}

/// What the sanitizer did with one trajectory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SanitizeAction {
    /// No anomalies; passed through untouched.
    Clean,
    /// Anomalies found and repaired; the trajectory (possibly split)
    /// continues into the dataset.
    Repaired,
    /// Rejected whole; raw fixes preserved for quarantine.
    Quarantined,
}

/// Per-trajectory sanitization outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct SanitizeReport {
    /// Trajectory id as claimed by its fixes.
    pub id: TrajectoryId,
    /// Raw fixes examined.
    pub points_in: usize,
    /// Points that made it into the dataset (across split parts).
    pub points_out: usize,
    /// Anomalies detected (empty for clean trajectories).
    pub anomalies: Vec<Anomaly>,
    /// Disposition.
    pub action: SanitizeAction,
}

/// Aggregate counters over one sanitization run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SanitizeSummary {
    /// Trajectories examined.
    pub trajectories_in: usize,
    /// Trajectories passed through untouched.
    pub clean: usize,
    /// Trajectories repaired (still present, possibly split).
    pub repaired: usize,
    /// Trajectories rejected whole.
    pub quarantined: usize,
    /// Extra trajectories created by gap splitting.
    pub splits: usize,
    /// Raw fixes examined.
    pub points_in: usize,
    /// Points emitted into the dataset.
    pub points_out: usize,
    /// Duplicate fixes removed.
    pub points_deduped: usize,
    /// Out-of-order fixes reinserted in time order.
    pub points_reordered: usize,
    /// Teleport spikes clamped back onto a plausible course.
    pub points_clamped: usize,
    /// Fixes dropped as unrecoverable (stale beyond the reorder window,
    /// or stranded in a sub-2-point split part).
    pub points_dropped: usize,
    /// Unparseable input lines skipped (only under Skip/Repair reads).
    pub malformed_lines: usize,
}

impl SanitizeSummary {
    /// `true` when nothing was repaired, dropped or quarantined.
    pub fn is_clean(&self) -> bool {
        self.repaired == 0
            && self.quarantined == 0
            && self.points_in == self.points_out
            && self.malformed_lines == 0
    }

    /// One-line human-readable digest.
    pub fn digest(&self) -> String {
        format!(
            "{} trajectories: {} clean, {} repaired, {} quarantined; \
             {} fixes -> {} points ({} deduped, {} reordered, {} clamped, {} dropped, {} splits)",
            self.trajectories_in,
            self.clean,
            self.repaired,
            self.quarantined,
            self.points_in,
            self.points_out,
            self.points_deduped,
            self.points_reordered,
            self.points_clamped,
            self.points_dropped,
            self.splits,
        )
    }
}

/// A rejected trajectory, kept in raw form for offline inspection.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantinedTrajectory {
    /// Claimed trajectory id.
    pub id: TrajectoryId,
    /// Why it was rejected.
    pub reason: String,
    /// The raw fixes as received.
    pub fixes: Vec<RawFix>,
}

/// Everything a sanitization run produces.
#[derive(Debug, Clone)]
pub struct SanitizeOutput {
    /// The surviving (validated) dataset.
    pub dataset: Dataset,
    /// Per-trajectory outcomes, in input order.
    pub reports: Vec<SanitizeReport>,
    /// Aggregate counters.
    pub summary: SanitizeSummary,
    /// Rejected trajectories with their raw fixes.
    pub quarantined: Vec<QuarantinedTrajectory>,
}

/// Screens raw fixes into validated trajectories under an
/// [`ErrorPolicy`]. See the [module docs](self) for the fault model.
#[derive(Debug, Clone)]
pub struct Sanitizer {
    config: SanitizeConfig,
}

impl Sanitizer {
    /// Creates a sanitizer with explicit tuning.
    pub fn new(config: SanitizeConfig) -> Self {
        Sanitizer { config }
    }

    /// Creates a sanitizer with default tuning under `policy`.
    pub fn with_policy(policy: ErrorPolicy) -> Self {
        Sanitizer::new(SanitizeConfig::with_policy(policy))
    }

    /// The active configuration.
    pub fn config(&self) -> &SanitizeConfig {
        &self.config
    }

    /// Sanitizes a stream of raw fixes (grouped into trajectories by
    /// consecutive runs of equal `trid`, as the CSV format requires).
    ///
    /// # Errors
    ///
    /// Under [`ErrorPolicy::Strict`] the first invalid trajectory
    /// returns its [`TrajError`]; Skip and Repair never error.
    pub fn sanitize_fixes(
        &self,
        name: impl Into<String>,
        fixes: Vec<RawFix>,
    ) -> Result<SanitizeOutput, TrajError> {
        let groups = group_by_trid(fixes);
        // Fresh ids for split parts start above every id in the input.
        let mut next_id = groups
            .iter()
            .map(|(id, _)| id.value())
            .max()
            .map_or(0, |m| m + 1);

        let mut out = SanitizeOutput {
            dataset: Dataset::new(name),
            reports: Vec::with_capacity(groups.len()),
            summary: SanitizeSummary::default(),
            quarantined: Vec::new(),
        };
        for (id, fixes) in groups {
            out.summary.trajectories_in += 1;
            out.summary.points_in += fixes.len();
            match self.config.policy {
                ErrorPolicy::Strict => self.apply_strict(id, fixes, &mut out)?,
                ErrorPolicy::Skip => self.apply_skip(id, fixes, &mut out),
                ErrorPolicy::Repair => self.apply_repair(id, fixes, &mut next_id, &mut out),
            }
        }
        Ok(out)
    }

    /// Sanitizes an already-constructed dataset (used to re-screen data
    /// of unknown provenance, and by the idempotence property tests).
    ///
    /// # Errors
    ///
    /// Same as [`Sanitizer::sanitize_fixes`].
    pub fn sanitize_dataset(&self, dataset: &Dataset) -> Result<SanitizeOutput, TrajError> {
        self.sanitize_fixes(dataset.name(), dataset_fixes(dataset))
    }

    /// Reads a dataset from the CSV format of [`crate::io`], applying
    /// the policy to malformed lines as well: Strict fails on them,
    /// Skip/Repair drop them (counted in
    /// [`SanitizeSummary::malformed_lines`]).
    ///
    /// # Errors
    ///
    /// I/O errors always propagate; parse and validation errors only
    /// under [`ErrorPolicy::Strict`].
    pub fn read<R: BufRead>(
        &self,
        name: impl Into<String>,
        r: R,
    ) -> Result<SanitizeOutput, TrajError> {
        if self.config.policy == ErrorPolicy::Strict {
            // Byte-for-byte the legacy path: same errors, same dataset.
            let dataset = crate::io::read_dataset(name, r)?;
            let reports = dataset
                .trajectories()
                .iter()
                .map(|tr| SanitizeReport {
                    id: tr.id(),
                    points_in: tr.len(),
                    points_out: tr.len(),
                    anomalies: Vec::new(),
                    action: SanitizeAction::Clean,
                })
                .collect::<Vec<_>>();
            let summary = SanitizeSummary {
                trajectories_in: dataset.len(),
                clean: dataset.len(),
                points_in: dataset.total_points(),
                points_out: dataset.total_points(),
                ..SanitizeSummary::default()
            };
            return Ok(SanitizeOutput {
                dataset,
                reports,
                summary,
                quarantined: Vec::new(),
            });
        }
        let raw = crate::io::read_raw_fixes(r)?;
        let mut out = self.sanitize_fixes(name, raw.fixes)?;
        out.summary.malformed_lines = raw.malformed.len();
        Ok(out)
    }

    fn apply_strict(
        &self,
        id: TrajectoryId,
        fixes: Vec<RawFix>,
        out: &mut SanitizeOutput,
    ) -> Result<(), TrajError> {
        let n = fixes.len();
        let tr = Trajectory::new(id, fixes.iter().map(RawFix::location).collect())?;
        out.dataset.push(tr);
        out.summary.clean += 1;
        out.summary.points_out += n;
        out.reports.push(SanitizeReport {
            id,
            points_in: n,
            points_out: n,
            anomalies: Vec::new(),
            action: SanitizeAction::Clean,
        });
        Ok(())
    }

    fn apply_skip(&self, id: TrajectoryId, fixes: Vec<RawFix>, out: &mut SanitizeOutput) {
        let anomalies = self.detect(&fixes);
        let n = fixes.len();
        if anomalies.is_empty() {
            let tr = Trajectory::new(id, fixes.iter().map(RawFix::location).collect())
                .expect("fixes with no anomalies satisfy trajectory invariants"); // lint:allow(L1) reason=anomaly-free fixes satisfy the trajectory invariants by definition
            out.dataset.push(tr);
            out.summary.clean += 1;
            out.summary.points_out += n;
            out.reports.push(SanitizeReport {
                id,
                points_in: n,
                points_out: n,
                anomalies,
                action: SanitizeAction::Clean,
            });
        } else {
            out.summary.quarantined += 1;
            out.quarantined.push(QuarantinedTrajectory {
                id,
                reason: describe(&anomalies),
                fixes,
            });
            out.reports.push(SanitizeReport {
                id,
                points_in: n,
                points_out: 0,
                anomalies,
                action: SanitizeAction::Quarantined,
            });
        }
    }

    fn apply_repair(
        &self,
        id: TrajectoryId,
        fixes: Vec<RawFix>,
        next_id: &mut u64,
        out: &mut SanitizeOutput,
    ) {
        let anomalies = self.detect(&fixes);
        let n = fixes.len();
        if anomalies.is_empty() {
            let tr = Trajectory::new(id, fixes.iter().map(RawFix::location).collect())
                .expect("fixes with no anomalies satisfy trajectory invariants"); // lint:allow(L1) reason=anomaly-free fixes satisfy the trajectory invariants by definition
            out.dataset.push(tr);
            out.summary.clean += 1;
            out.summary.points_out += n;
            out.reports.push(SanitizeReport {
                id,
                points_in: n,
                points_out: n,
                anomalies,
                action: SanitizeAction::Clean,
            });
            return;
        }
        let (parts, stats) = self.repair(&fixes);
        out.summary.points_deduped += stats.deduped;
        out.summary.points_reordered += stats.reordered;
        out.summary.points_clamped += stats.clamped;
        out.summary.points_dropped += stats.dropped;
        if parts.is_empty() {
            out.summary.quarantined += 1;
            out.quarantined.push(QuarantinedTrajectory {
                id,
                reason: format!("{} (unrepairable)", describe(&anomalies)),
                fixes,
            });
            out.reports.push(SanitizeReport {
                id,
                points_in: n,
                points_out: 0,
                anomalies,
                action: SanitizeAction::Quarantined,
            });
            return;
        }
        out.summary.repaired += 1;
        out.summary.splits += parts.len() - 1;
        let mut points_out = 0usize;
        for (i, part) in parts.into_iter().enumerate() {
            let part_id = if i == 0 {
                id
            } else {
                let fresh = TrajectoryId::new(*next_id);
                *next_id += 1;
                fresh
            };
            points_out += part.len();
            let tr = Trajectory::new(part_id, part.iter().map(RawFix::location).collect())
                .expect("repaired parts satisfy trajectory invariants"); // lint:allow(L1) reason=repair splits parts at every invariant violation
            out.dataset.push(tr);
        }
        out.summary.points_out += points_out;
        out.reports.push(SanitizeReport {
            id,
            points_in: n,
            points_out,
            anomalies,
            action: SanitizeAction::Repaired,
        });
    }

    /// Detects anomalies without modifying anything.
    pub fn detect(&self, fixes: &[RawFix]) -> Vec<Anomaly> {
        let mut anomalies = Vec::new();
        if fixes.len() < 2 {
            anomalies.push(Anomaly::TooFewPoints { got: fixes.len() });
            return anomalies;
        }
        for (i, w) in fixes.windows(2).enumerate() {
            let (a, b) = (&w[0], &w[1]);
            let dt = b.time - a.time;
            let dist = a.position.distance(b.position);
            let index = i + 1;
            if dt < 0.0 {
                anomalies.push(Anomaly::OutOfOrder { index });
                continue;
            }
            if same_place(a, b) && dt <= self.config.dedup_window_s {
                anomalies.push(Anomaly::Duplicate { index });
                continue;
            }
            if dt > self.config.max_gap_s {
                anomalies.push(Anomaly::LargeGap { index, gap_s: dt });
            }
            let speed = if dt > 0.0 {
                dist / dt
            } else if dist > 0.0 {
                f64::INFINITY
            } else {
                0.0
            };
            if speed > self.config.max_speed_mps {
                anomalies.push(Anomaly::SpeedSpike {
                    index,
                    speed_mps: speed,
                });
            }
        }
        anomalies
    }

    /// Repairs one trajectory's fixes: reorder, clamp, dedup, then split
    /// on gaps. Returns the surviving parts (each with ≥ 2 time-ordered
    /// fixes) and what was done.
    fn repair(&self, fixes: &[RawFix]) -> (Vec<Vec<RawFix>>, RepairStats) {
        let mut stats = RepairStats::default();

        // 1. Bounded-window reorder: fixes arriving late are reinserted
        //    where their timestamp belongs, as long as that spot is
        //    within the lookback window; anything staler is dropped.
        let mut ordered: Vec<RawFix> = Vec::with_capacity(fixes.len());
        for &fix in fixes {
            match ordered.last() {
                Some(last) if fix.time < last.time => {
                    let lo = ordered.len().saturating_sub(self.config.reorder_window);
                    let mut j = ordered.len();
                    while j > lo && ordered[j - 1].time > fix.time {
                        j -= 1;
                    }
                    if j > 0 && ordered[j - 1].time > fix.time {
                        stats.dropped += 1;
                    } else {
                        ordered.insert(j, fix);
                        stats.reordered += 1;
                    }
                }
                _ => ordered.push(fix),
            }
        }

        // 2. Clamp teleport spikes: pull the spiking fix back along the
        //    displacement direction to 95% of the plausible maximum, so
        //    a re-screen sees it comfortably under the limit.
        for i in 1..ordered.len() {
            let prev = ordered[i - 1];
            let cur = ordered[i];
            let dt = cur.time - prev.time;
            let dist = prev.position.distance(cur.position);
            let spike = if dt > 0.0 {
                dist / dt > self.config.max_speed_mps
            } else {
                dist > 0.0
            };
            if spike {
                let reach = 0.95 * self.config.max_speed_mps * dt;
                ordered[i].position = if dist <= f64::EPSILON || reach <= 0.0 {
                    prev.position
                } else {
                    prev.position.lerp(cur.position, reach / dist)
                };
                stats.clamped += 1;
            }
        }

        // 3. Dedup: a fix at the identical position as the last kept fix
        //    within the dedup window is a retransmission; drop it.
        let mut deduped: Vec<RawFix> = Vec::with_capacity(ordered.len());
        for fix in ordered {
            if let Some(prev) = deduped.last() {
                if same_place(prev, &fix) && fix.time - prev.time <= self.config.dedup_window_s {
                    stats.deduped += 1;
                    continue;
                }
            }
            deduped.push(fix);
        }

        // 4. Split on over-long gaps; parts too short to stand alone are
        //    dropped (their fixes counted).
        let mut parts: Vec<Vec<RawFix>> = Vec::new();
        let mut current: Vec<RawFix> = Vec::new();
        let mut push_part = |part: Vec<RawFix>, stats: &mut RepairStats| {
            if part.len() >= 2 {
                parts.push(part);
            } else {
                stats.dropped += part.len();
            }
        };
        for fix in deduped {
            if let Some(prev) = current.last() {
                if fix.time - prev.time > self.config.max_gap_s {
                    push_part(std::mem::take(&mut current), &mut stats);
                }
            }
            current.push(fix);
        }
        push_part(current, &mut stats);
        (parts, stats)
    }
}

#[derive(Debug, Default, Clone, Copy)]
struct RepairStats {
    reordered: usize,
    deduped: usize,
    clamped: usize,
    dropped: usize,
}

fn same_place(a: &RawFix, b: &RawFix) -> bool {
    a.segment == b.segment && a.position.x == b.position.x && a.position.y == b.position.y
}

fn describe(anomalies: &[Anomaly]) -> String {
    const SHOWN: usize = 4;
    let mut parts: Vec<String> = anomalies
        .iter()
        .take(SHOWN)
        .map(|a| a.to_string())
        .collect();
    if anomalies.len() > SHOWN {
        parts.push(format!("+{} more", anomalies.len() - SHOWN));
    }
    parts.join("; ")
}

fn group_by_trid(fixes: Vec<RawFix>) -> Vec<(TrajectoryId, Vec<RawFix>)> {
    let mut groups: Vec<(TrajectoryId, Vec<RawFix>)> = Vec::new();
    for fix in fixes {
        match groups.last_mut() {
            Some((id, run)) if id.value() == fix.trid => run.push(fix),
            _ => groups.push((TrajectoryId::new(fix.trid), vec![fix])),
        }
    }
    groups
}

/// Flattens a dataset back into raw fixes (dataset order).
pub fn dataset_fixes(dataset: &Dataset) -> Vec<RawFix> {
    let mut fixes = Vec::with_capacity(dataset.total_points());
    for tr in dataset.trajectories() {
        for p in tr.points() {
            fixes.push(RawFix::new(tr.id().value(), p.segment, p.position, p.time));
        }
    }
    fixes
}

/// Writes quarantined trajectories in the dataset CSV format, each
/// preceded by a comment carrying its rejection reason, so the file both
/// documents the rejects and can be re-read as raw fixes later.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_quarantine<W: Write>(
    quarantined: &[QuarantinedTrajectory],
    w: W,
) -> Result<(), TrajError> {
    write_quarantine_capped(quarantined, w, None).map(|_| ())
}

/// What a capped quarantine write actually did.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct QuarantineWriteReport {
    /// Trajectories written in full.
    pub written: usize,
    /// Trajectories dropped to honour the byte budget. Dropping happens
    /// from the *end* of the list: the earliest rejects — usually the
    /// ones being debugged — survive.
    pub dropped: usize,
    /// Bytes emitted (including the trailer noting any drops).
    pub bytes: usize,
}

impl QuarantineWriteReport {
    /// True when every quarantined trajectory landed in the file.
    pub fn is_complete(&self) -> bool {
        self.dropped == 0
    }
}

/// [`write_quarantine`] under a byte budget: trajectory blocks are
/// emitted in order until the next block would exceed `max_bytes`; the
/// rest are dropped and counted, and a trailer comment records the drop
/// so a truncated file is self-describing.
///
/// With `max_bytes = None` (or a budget every block fits under) every
/// block is written: [`write_quarantine`] is this writer with `None`.
///
/// # Errors
///
/// Propagates I/O failures from the writer.
pub fn write_quarantine_capped<W: Write>(
    quarantined: &[QuarantinedTrajectory],
    mut w: W,
    max_bytes: Option<usize>,
) -> Result<QuarantineWriteReport, TrajError> {
    let mut header = Vec::new();
    writeln!(header, "# quarantine: {} trajectories", quarantined.len())?;
    writeln!(header, "# trid,sid,x,y,t")?;

    let mut report = QuarantineWriteReport {
        bytes: header.len(),
        ..QuarantineWriteReport::default()
    };
    w.write_all(&header)?;

    for q in quarantined {
        let mut block = Vec::new();
        writeln!(block, "# {}: {}", q.id, q.reason)?;
        for fix in &q.fixes {
            writeln!(
                block,
                "{},{},{},{},{}",
                fix.trid,
                fix.segment.index(),
                fix.position.x,
                fix.position.y,
                fix.time
            )?;
        }
        if let Some(cap) = max_bytes {
            if report.bytes + block.len() > cap {
                report.dropped = quarantined.len() - report.written;
                break;
            }
        }
        w.write_all(&block)?;
        report.bytes += block.len();
        report.written += 1;
    }
    if report.dropped > 0 {
        let mut trailer = Vec::new();
        writeln!(
            trailer,
            "# truncated: {} trajectories dropped (byte budget {})",
            report.dropped,
            max_bytes.unwrap_or(0)
        )?;
        w.write_all(&trailer)?;
        report.bytes += trailer.len();
    }
    Ok(report)
}

/// Atomically saves quarantined trajectories to `path` in the
/// [`write_quarantine`] format: the file is staged in full, written to a
/// temporary sibling and renamed into place, so a crash mid-save never
/// leaves a truncated or half-written quarantine file behind.
///
/// # Errors
///
/// Propagates formatting and filesystem failures; on error the
/// destination is either absent or still holds its previous contents.
pub fn save_quarantine<P: AsRef<std::path::Path>>(
    quarantined: &[QuarantinedTrajectory],
    path: P,
) -> Result<(), TrajError> {
    let mut buf = Vec::new();
    write_quarantine(quarantined, &mut buf)?;
    neat_durability::write_atomic_std(path.as_ref(), &buf)
        .map_err(|e| TrajError::Io(std::io::Error::other(e.to_string())))?;
    Ok(())
}

/// The path the previous quarantine generation is rotated to by
/// [`save_quarantine_capped`]: `<path>.1`.
pub fn rotated_quarantine_path(path: &std::path::Path) -> std::path::PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".1");
    std::path::PathBuf::from(name)
}

/// [`save_quarantine`] with a byte budget and single-generation
/// rotation: an existing file at `path` is first renamed to `<path>.1`
/// (replacing any older generation), then the capped content is written
/// atomically. Long-running sessions that quarantine on every batch thus
/// hold at most two bounded files instead of growing without limit.
///
/// # Errors
///
/// Propagates formatting and filesystem failures; the previous
/// generation is preserved (at `path` or `<path>.1`) on failure.
pub fn save_quarantine_capped<P: AsRef<std::path::Path>>(
    quarantined: &[QuarantinedTrajectory],
    path: P,
    max_bytes: Option<usize>,
) -> Result<QuarantineWriteReport, TrajError> {
    let path = path.as_ref();
    let mut buf = Vec::new();
    let report = write_quarantine_capped(quarantined, &mut buf, max_bytes)?;
    if path.exists() {
        std::fs::rename(path, rotated_quarantine_path(path))?;
    }
    neat_durability::write_atomic_std(path, &buf)
        .map_err(|e| TrajError::Io(std::io::Error::other(e.to_string())))?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fix(trid: u64, seg: usize, x: f64, t: f64) -> RawFix {
        RawFix::new(trid, SegmentId::new(seg), Point::new(x, 0.0), t)
    }

    fn clean_run(trid: u64, n: usize) -> Vec<RawFix> {
        (0..n)
            .map(|i| fix(trid, 0, i as f64 * 10.0, i as f64 * 3.0))
            .collect()
    }

    #[test]
    fn policy_parses_cli_names() {
        assert_eq!("fail".parse::<ErrorPolicy>().unwrap(), ErrorPolicy::Strict);
        assert_eq!(
            "strict".parse::<ErrorPolicy>().unwrap(),
            ErrorPolicy::Strict
        );
        assert_eq!("skip".parse::<ErrorPolicy>().unwrap(), ErrorPolicy::Skip);
        assert_eq!(
            "repair".parse::<ErrorPolicy>().unwrap(),
            ErrorPolicy::Repair
        );
        assert!("abort".parse::<ErrorPolicy>().is_err());
    }

    #[test]
    fn clean_fixes_pass_under_every_policy() {
        let fixes: Vec<RawFix> = (0..3).flat_map(|id| clean_run(id, 5)).collect();
        for policy in [ErrorPolicy::Strict, ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let out = Sanitizer::with_policy(policy)
                .sanitize_fixes("clean", fixes.clone())
                .unwrap();
            assert_eq!(out.dataset.len(), 3, "{policy:?}");
            assert_eq!(out.summary.clean, 3);
            assert!(out.summary.is_clean());
            assert!(out.quarantined.is_empty());
        }
    }

    #[test]
    fn strict_fails_fast_on_backwards_time() {
        let mut fixes = clean_run(0, 4);
        fixes[2].time = 1.0; // goes backwards
        let err = Sanitizer::with_policy(ErrorPolicy::Strict)
            .sanitize_fixes("bad", fixes)
            .unwrap_err();
        assert!(matches!(err, TrajError::NonMonotonicTime { .. }));
    }

    #[test]
    fn skip_quarantines_only_the_faulty_trajectory() {
        let mut fixes = clean_run(0, 4);
        let mut bad = clean_run(1, 4);
        bad[2].time = 0.5;
        fixes.extend(bad);
        fixes.extend(clean_run(2, 4));
        let out = Sanitizer::with_policy(ErrorPolicy::Skip)
            .sanitize_fixes("mixed", fixes)
            .unwrap();
        assert_eq!(out.dataset.len(), 2);
        assert_eq!(out.summary.quarantined, 1);
        assert_eq!(out.quarantined.len(), 1);
        assert_eq!(out.quarantined[0].id, TrajectoryId::new(1));
        assert!(!out.quarantined[0].reason.is_empty());
        assert_eq!(out.quarantined[0].fixes.len(), 4);
    }

    #[test]
    fn repair_reorders_within_window() {
        let mut fixes = clean_run(0, 6);
        fixes.swap(2, 3); // adjacent out-of-order pair
        let out = Sanitizer::with_policy(ErrorPolicy::Repair)
            .sanitize_fixes("swap", fixes)
            .unwrap();
        assert_eq!(out.dataset.len(), 1);
        assert_eq!(out.summary.repaired, 1);
        assert_eq!(out.summary.points_reordered, 1);
        assert_eq!(out.dataset.trajectories()[0].len(), 6);
        let times: Vec<f64> = out.dataset.trajectories()[0]
            .points()
            .iter()
            .map(|p| p.time)
            .collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn repair_drops_fixes_staler_than_the_window() {
        let mut cfg = SanitizeConfig::with_policy(ErrorPolicy::Repair);
        cfg.reorder_window = 2;
        let mut fixes = clean_run(0, 8);
        // A fix from the distant past arrives late.
        fixes.push(fix(0, 0, 1.0, 0.5));
        let out = Sanitizer::new(cfg).sanitize_fixes("stale", fixes).unwrap();
        assert_eq!(out.summary.points_dropped, 1);
        assert_eq!(out.dataset.trajectories()[0].len(), 8);
    }

    #[test]
    fn repair_dedups_exact_and_stale_duplicates() {
        let mut fixes = clean_run(0, 5);
        // Exact duplicate of fix 2 and a stale retransmission of fix 3.
        fixes.insert(3, fixes[2]);
        let mut stale = fixes[5];
        stale.time -= 0.8;
        fixes.insert(6, stale);
        let out = Sanitizer::with_policy(ErrorPolicy::Repair)
            .sanitize_fixes("dup", fixes)
            .unwrap();
        assert_eq!(out.summary.points_deduped, 2);
        assert_eq!(out.dataset.trajectories()[0].len(), 5);
    }

    #[test]
    fn repair_clamps_teleport_spikes() {
        let mut fixes = clean_run(0, 5);
        fixes[2].position = Point::new(50_000.0, 40_000.0); // ~60 km jump in 3 s
        let out = Sanitizer::with_policy(ErrorPolicy::Repair)
            .sanitize_fixes("spike", fixes)
            .unwrap();
        assert!(out.summary.points_clamped >= 1);
        let tr = &out.dataset.trajectories()[0];
        for w in tr.points().windows(2) {
            let dt = w[1].time - w[0].time;
            if dt > 0.0 {
                assert!(w[0].position.distance(w[1].position) / dt <= 70.0);
            }
        }
    }

    #[test]
    fn repair_splits_on_large_gaps() {
        let mut fixes = clean_run(0, 4);
        let mut tail = clean_run(0, 4);
        for f in &mut tail {
            f.time += 2_000.0; // far beyond max_gap_s
            f.position.x += 500.0;
        }
        fixes.extend(tail);
        let out = Sanitizer::with_policy(ErrorPolicy::Repair)
            .sanitize_fixes("gap", fixes)
            .unwrap();
        assert_eq!(out.summary.splits, 1);
        assert_eq!(out.dataset.len(), 2);
        // First part keeps the original id; the split part gets a fresh
        // id above every input id.
        assert_eq!(out.dataset.trajectories()[0].id(), TrajectoryId::new(0));
        assert_eq!(out.dataset.trajectories()[1].id(), TrajectoryId::new(1));
        assert!(out.dataset.validate_unique_ids().is_ok());
    }

    #[test]
    fn repair_quarantines_unrepairable_stubs() {
        let fixes = vec![fix(0, 0, 0.0, 0.0)]; // single fix: nothing to repair
        let out = Sanitizer::with_policy(ErrorPolicy::Repair)
            .sanitize_fixes("stub", fixes)
            .unwrap();
        assert!(out.dataset.is_empty());
        assert_eq!(out.summary.quarantined, 1);
        assert!(out.quarantined[0].reason.contains("unrepairable"));
    }

    #[test]
    fn repair_is_idempotent_on_its_own_output() {
        let mut fixes = clean_run(0, 8);
        fixes.swap(1, 2);
        fixes.insert(4, fixes[3]);
        fixes[6].position = Point::new(90_000.0, 0.0);
        let mut tail = clean_run(0, 3);
        for f in &mut tail {
            f.time += 5_000.0;
        }
        fixes.extend(tail);
        let sanitizer = Sanitizer::with_policy(ErrorPolicy::Repair);
        let once = sanitizer.sanitize_fixes("idem", fixes).unwrap();
        let twice = sanitizer.sanitize_dataset(&once.dataset).unwrap();
        assert!(twice.summary.is_clean(), "{}", twice.summary.digest());
        assert_eq!(once.dataset.trajectories(), twice.dataset.trajectories());
    }

    #[test]
    fn quarantine_roundtrips_through_the_writer() {
        let mut fixes = clean_run(3, 4);
        fixes[2].time = 0.5;
        let out = Sanitizer::with_policy(ErrorPolicy::Skip)
            .sanitize_fixes("q", fixes)
            .unwrap();
        let mut buf = Vec::new();
        write_quarantine(&out.quarantined, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("# quarantine: 1 trajectories"));
        assert!(text.contains("# tr3:"));
        // The raw rows re-read as the same fixes.
        let raw = crate::io::read_raw_fixes(text.as_bytes()).unwrap();
        assert_eq!(raw.fixes, out.quarantined[0].fixes);
        assert!(raw.malformed.is_empty());
    }

    #[test]
    fn detect_flags_each_fault_class() {
        let s = Sanitizer::with_policy(ErrorPolicy::Skip);
        let mut ooo = clean_run(0, 4);
        ooo[2].time = 0.5;
        assert!(matches!(s.detect(&ooo)[0], Anomaly::OutOfOrder { .. }));

        let mut dup = clean_run(0, 4);
        dup.insert(2, dup[1]);
        assert!(matches!(s.detect(&dup)[0], Anomaly::Duplicate { .. }));

        let mut spike = clean_run(0, 4);
        spike[2].position = Point::new(1e6, 0.0);
        assert!(s
            .detect(&spike)
            .iter()
            .any(|a| matches!(a, Anomaly::SpeedSpike { .. })));

        let mut gap = clean_run(0, 4);
        gap[3].time += 1e4;
        assert!(s
            .detect(&gap)
            .iter()
            .any(|a| matches!(a, Anomaly::LargeGap { .. })));

        assert!(matches!(
            s.detect(&clean_run(0, 1))[0],
            Anomaly::TooFewPoints { got: 1 }
        ));
    }

    #[test]
    fn strict_read_matches_legacy_reader() {
        let text = "# dataset: x\n0,1,0.0,0.0,0.0\n0,1,5.0,0.0,1.0\n";
        let out = Sanitizer::with_policy(ErrorPolicy::Strict)
            .read("x", text.as_bytes())
            .unwrap();
        let legacy = crate::io::read_dataset("x", text.as_bytes()).unwrap();
        assert_eq!(out.dataset.trajectories(), legacy.trajectories());
        let bad = "0,1,0.0,0.0,5.0\n0,1,5.0,0.0,1.0\n";
        assert!(Sanitizer::with_policy(ErrorPolicy::Strict)
            .read("x", bad.as_bytes())
            .is_err());
    }

    #[test]
    fn lenient_read_skips_malformed_lines() {
        let text = "0,1,0.0,0.0,0.0\nnot,a,row\n0,1,5.0,0.0,1.0\n";
        let out = Sanitizer::with_policy(ErrorPolicy::Repair)
            .read("m", text.as_bytes())
            .unwrap();
        assert_eq!(out.summary.malformed_lines, 1);
        assert_eq!(out.dataset.len(), 1);
        assert_eq!(out.dataset.total_points(), 2);
    }

    fn many_quarantined(n: usize) -> Vec<QuarantinedTrajectory> {
        (0..n)
            .map(|i| QuarantinedTrajectory {
                id: TrajectoryId::new(i as u64),
                reason: format!("reject {i}"),
                fixes: clean_run(i as u64, 3),
            })
            .collect()
    }

    /// The exact bytes of a two-trajectory quarantine file: header,
    /// column line, then each reject's reason comment and its fixes as
    /// `trid,sid,x,y,t` rows, floats in shortest round-trip form.
    #[test]
    fn quarantine_file_bytes_are_pinned() {
        let qs = vec![
            QuarantinedTrajectory {
                id: TrajectoryId::new(7),
                reason: "teleport".into(),
                fixes: vec![
                    RawFix::new(7, SegmentId::new(3), Point::new(12.5, -0.25), 0.0),
                    RawFix::new(7, SegmentId::new(4), Point::new(1e6, 3.0), 1.5),
                ],
            },
            QuarantinedTrajectory {
                id: TrajectoryId::new(42),
                reason: "too short: 1 point".into(),
                fixes: vec![RawFix::new(
                    42,
                    SegmentId::new(0),
                    Point::new(0.1, 0.2),
                    99.0,
                )],
            },
        ];
        let mut out = Vec::new();
        write_quarantine(&qs, &mut out).unwrap();
        assert_eq!(
            String::from_utf8(out).unwrap(),
            "# quarantine: 2 trajectories\n\
             # trid,sid,x,y,t\n\
             # tr7: teleport\n\
             7,3,12.5,-0.25,0\n\
             7,4,1000000,3,1.5\n\
             # tr42: too short: 1 point\n\
             42,0,0.1,0.2,99\n"
        );
    }

    #[test]
    fn capped_writer_matches_uncapped_when_budget_fits() {
        let qs = many_quarantined(5);
        let mut plain = Vec::new();
        write_quarantine(&qs, &mut plain).unwrap();
        for cap in [None, Some(plain.len()), Some(plain.len() * 10)] {
            let mut capped = Vec::new();
            let report = write_quarantine_capped(&qs, &mut capped, cap).unwrap();
            assert_eq!(capped, plain, "cap {cap:?} must be byte-identical");
            assert_eq!(report.written, 5);
            assert_eq!(report.dropped, 0);
            assert!(report.is_complete());
            assert_eq!(report.bytes, plain.len());
        }
    }

    #[test]
    fn capped_writer_drops_tail_and_records_it() {
        let qs = many_quarantined(6);
        let mut full = Vec::new();
        write_quarantine(&qs, &mut full).unwrap();
        // Budget for roughly half the file: the tail is dropped, the
        // trailer says so, and every surviving block is intact.
        let mut out = Vec::new();
        let report = write_quarantine_capped(&qs, &mut out, Some(full.len() / 2)).unwrap();
        assert!(report.dropped > 0);
        assert_eq!(report.written + report.dropped, 6);
        assert_eq!(report.bytes, out.len());
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains(&format!(
            "# truncated: {} trajectories dropped",
            report.dropped
        )));
        // Early rejects survive; the dropped ones are the latest.
        assert!(text.contains("# tr0: reject 0"));
        assert!(!text.contains("# tr5: reject 5"));
    }

    #[test]
    fn tiny_budget_keeps_only_the_header() {
        let qs = many_quarantined(3);
        let mut out = Vec::new();
        let report = write_quarantine_capped(&qs, &mut out, Some(0)).unwrap();
        assert_eq!(report.written, 0);
        assert_eq!(report.dropped, 3);
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("# quarantine: 3 trajectories"));
        assert!(text.contains("# truncated: 3 trajectories dropped"));
    }

    #[test]
    fn capped_save_rotates_previous_generation() {
        let dir = std::env::temp_dir().join(format!("neat-traj-quarantine-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.csv");

        let gen1 = many_quarantined(2);
        let r1 = save_quarantine_capped(&gen1, &path, Some(10_000)).unwrap();
        assert!(r1.is_complete());
        let first = std::fs::read(&path).unwrap();

        let gen2 = many_quarantined(3);
        save_quarantine_capped(&gen2, &path, Some(10_000)).unwrap();
        let rotated = rotated_quarantine_path(&path);
        assert_eq!(
            std::fs::read(&rotated).unwrap(),
            first,
            "previous generation must move to <path>.1"
        );
        let current = String::from_utf8(std::fs::read(&path).unwrap()).unwrap();
        assert!(current.starts_with("# quarantine: 3 trajectories"));

        // A third save replaces the old generation: never more than two
        // bounded files on disk.
        save_quarantine_capped(&gen1, &path, Some(10_000)).unwrap();
        let kept = String::from_utf8(std::fs::read(&rotated).unwrap()).unwrap();
        assert!(kept.starts_with("# quarantine: 3 trajectories"));
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn sustained_capped_saves_stay_bounded_and_keep_newest() {
        let dir = std::env::temp_dir().join(format!(
            "neat-traj-quarantine-sustained-{}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("quarantine.csv");
        let rotated = rotated_quarantine_path(&path);
        // Small enough that most generations overflow it.
        let cap = 400usize;
        // The cap bounds the record blocks; the header and the
        // one-line truncation trailer ride on top.
        let slack = 128usize;

        for generation in 1..=12usize {
            let qs = many_quarantined(generation);
            let report = save_quarantine_capped(&qs, &path, Some(cap)).unwrap();
            let bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.len(), report.bytes, "gen {generation}: report lies");
            assert!(
                report.bytes <= cap + slack,
                "gen {generation}: {} bytes exceeds cap {cap} (+{slack} slack)",
                report.bytes
            );
            let current = String::from_utf8(bytes).unwrap();
            // Rotation never loses the newest generation: `path` always
            // holds it, complete with its earliest records.
            assert!(
                current.starts_with(&format!("# quarantine: {generation} trajectories")),
                "gen {generation}: current file is not the newest generation"
            );
            assert!(current.contains("# tr0: reject 0"), "gen {generation}");
            if generation >= 2 {
                let prev = String::from_utf8(std::fs::read(&rotated).unwrap()).unwrap();
                assert!(
                    prev.starts_with(&format!("# quarantine: {} trajectories", generation - 1)),
                    "gen {generation}: rotated file is not the previous generation"
                );
            }
            // Never more than two bounded files, no matter how long the
            // session runs.
            let mut names: Vec<String> = std::fs::read_dir(&dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
                .collect();
            names.sort();
            let expected = if generation == 1 {
                vec!["quarantine.csv".to_string()]
            } else {
                vec!["quarantine.csv".to_string(), "quarantine.csv.1".to_string()]
            };
            assert_eq!(names, expected, "gen {generation}");
        }
        let _ = std::fs::remove_dir_all(dir);
    }
}
