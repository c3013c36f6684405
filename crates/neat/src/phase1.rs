//! Phase 1 — base cluster formation (Section III-A).
//!
//! Each trajectory is scanned point by point. Whenever two consecutive
//! samples lie on different road segments, the junction node(s) between
//! those segments are inserted as splitting points:
//!
//! * contiguous segments contribute the single shared junction `I(ei, ej)`,
//! * non-contiguous segments are repaired with a shortest-path search (the
//!   paper uses the map-matching approach of \[14\]); every junction along
//!   the repair path is inserted, so segments traversed *between* samples
//!   still receive a (two-point) t-fragment.
//!
//! The resulting t-fragments are grouped by road segment into base
//! clusters, which are returned sorted by density (descending) so the
//! first cluster is the dense-core (Definition 4).

use crate::control::PhaseStatus;
use crate::error::NeatError;
use crate::model::BaseCluster;
use neat_exec::{Executor, Halt};
use neat_rnet::path::TravelMode;
use neat_rnet::{RoadLocation, RoadNetwork, SegmentId, ShortestPathEngine};
use neat_runctl::{Control, Interrupt};
use neat_traj::sanitize::ErrorPolicy;
use neat_traj::{Dataset, SampleArena, TFragment, TrajView, Trajectory, TrajectoryId};

/// Output of Phase 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase1Output {
    /// Base clusters sorted by density descending (ties broken by segment
    /// id ascending, keeping the order deterministic). The first entry is
    /// the dense-core.
    pub base_clusters: Vec<BaseCluster>,
    /// Total number of t-fragments extracted.
    pub fragment_count: usize,
    /// Samples of the trajectories this output covers — a deterministic
    /// work counter: a pure function of the dataset and the interrupt cut
    /// point, identical at every thread count (pinned by the `layers`
    /// benchmark's smoke test).
    pub samples_scanned: usize,
}

impl Phase1Output {
    /// The dense-core — the densest base cluster (Definition 4) — or
    /// `None` for an empty dataset.
    pub fn dense_core(&self) -> Option<&BaseCluster> {
        self.base_clusters.first()
    }
}

/// How many trajectories the pipeline isolated instead of aborting on,
/// under [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`]. Always zero
/// under [`ErrorPolicy::Strict`], which errors out instead.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ResilienceCounters {
    /// Trajectories dropped whole (unextractable even after repair).
    pub skipped: usize,
    /// Trajectories kept after dropping their offending points.
    pub repaired: usize,
    /// Ids of the skipped trajectories, in dataset order.
    pub skipped_ids: Vec<TrajectoryId>,
}

impl ResilienceCounters {
    /// `true` when every trajectory went through untouched.
    pub fn is_clean(&self) -> bool {
        self.skipped == 0 && self.repaired == 0
    }

    /// Folds another counter set into this one (batch accumulation).
    pub fn merge(&mut self, other: &ResilienceCounters) {
        self.skipped += other.skipped;
        self.repaired += other.repaired;
        self.skipped_ids.extend(other.skipped_ids.iter().copied());
    }
}

/// Groups fragments by segment into density-sorted base clusters.
///
/// Takes per-chunk `(fragments, segment keys)` lists — the keys mirror
/// `fragments[i].segment.index()` and are built while the chunk is still
/// cache-hot, so the counting pass below scans compact `u32` runs
/// instead of striding through the (much larger) fragment records. The
/// lists' logical concatenation is the fragment stream in dataset order;
/// the scatter is a dense counting sort keyed by segment index — no
/// hashing on the hot path. Within-segment fragment order is the
/// concatenation order, and the final (density desc, segment asc) sort
/// is a total order over clusters (one cluster per segment), so the
/// output is identical to the old `HashMap`-based grouping for any
/// input.
fn group_into_clusters(
    lists: &[(Vec<TFragment>, Vec<u32>)],
    samples_scanned: usize,
) -> Phase1Output {
    let mut fragment_count = 0usize;
    let mut counts: Vec<u32> = Vec::new();
    for (_, keys) in lists {
        fragment_count += keys.len();
        for &k in keys {
            let s = k as usize;
            if s >= counts.len() {
                counts.resize(s + 1, 0);
            }
            counts[s] += 1;
        }
    }
    let max_seg = counts.len();
    // Dense slot map: segment index → bucket position, in segment order.
    let mut slot = vec![u32::MAX; max_seg];
    let mut buckets: Vec<Vec<TFragment>> = Vec::new();
    for (s, &c) in counts.iter().enumerate() {
        if c > 0 {
            slot[s] = buckets.len() as u32; // lint:allow(L4) reason=bucket count is bounded by the u32-backed segment id space
            buckets.push(Vec::with_capacity(c as usize));
        }
    }
    for (frags, keys) in lists {
        for (f, &k) in frags.iter().zip(keys) {
            buckets[slot[k as usize] as usize].push(*f);
        }
    }
    let mut base_clusters: Vec<BaseCluster> = buckets
        .into_iter()
        .map(|frags| {
            let sid = frags[0].segment;
            BaseCluster::from_grouped(sid, frags)
        })
        .collect();
    base_clusters.sort_by(|a, b| {
        b.density()
            .cmp(&a.density())
            .then_with(|| a.segment().cmp(&b.segment()))
    });
    Phase1Output {
        base_clusters,
        fragment_count,
        samples_scanned,
    }
}

/// Runs Phase 1 on `threads` workers with no [`Control`]: extracts
/// t-fragments from every trajectory and groups them into density-sorted
/// base clusters. The output (clusters *and* counters) is bit-identical
/// at every thread count.
///
/// When `insert_junctions` is `true`, junction points are inserted between
/// consecutive samples on different segments (with shortest-path gap repair
/// for non-contiguous segments); otherwise trajectories are split purely on
/// segment-id changes.
///
/// Under [`ErrorPolicy::Skip`] or [`ErrorPolicy::Repair`] a trajectory
/// the network cannot place is isolated (dropped or point-repaired,
/// counted in the returned [`ResilienceCounters`]) instead of aborting
/// the run.
///
/// # Errors
///
/// Under [`ErrorPolicy::Strict`], [`NeatError::UnknownSegment`] if a
/// sample references a segment that is not part of `net` (the error of
/// the earliest failing trajectory wins); the other policies only fail on
/// internal invariant violations (never on bad input data).
pub fn form_base_clusters_parallel_with_policy(
    net: &RoadNetwork,
    dataset: &Dataset,
    insert_junctions: bool,
    threads: usize,
    policy: ErrorPolicy,
) -> Result<(Phase1Output, ResilienceCounters), NeatError> {
    let free = Control::unlimited();
    form_base_clusters_ctl(net, dataset, insert_junctions, threads, policy, &free)
        .map(|(out, counters, _)| (out, counters))
}

/// Segment keys mirroring `frags[i].segment.index()` — the compact scan
/// input for the grouping counting sort.
fn segment_keys(frags: &[TFragment]) -> Vec<u32> {
    frags
        .iter()
        .map(|f| f.segment.index() as u32) // lint:allow(L4) reason=SegmentId is u32-backed, so index() round-trips losslessly
        .collect()
}

/// Trajectories per phase-1 work item. A constant, never derived from
/// the thread count: chunk boundaries, and with them the fold order, are
/// the same at every thread count, and a batch shorter than two chunks
/// per worker (a streamed batch, a pushed trip) stays on the calling
/// thread.
const CHUNK: usize = 32;

/// Phase 1 — the one implementation every entry point runs. The dataset
/// is flattened into a [`SampleArena`] and extracted in fixed
/// 32-trajectory chunks (`CHUNK`), each an item of
/// [`neat_exec::Executor::try_map_ctl`]. A worker appends the fragments
/// of its chunk into one contiguous buffer — no per-trajectory `Vec`s.
///
/// Check points: one op per trajectory, plus one per settled node of the
/// gap-repair shortest paths that actually run (see DESIGN §11). On
/// interrupt the clusters built from the completed trajectory prefix —
/// including the completed part of the interrupted chunk — are returned
/// with a [`PhaseStatus::Partial`] report instead of an error. The cut
/// point is the same at every thread count: workers run speculatively
/// against recorder controls and their charges are committed against
/// the real budget in dataset order.
///
/// # Errors
///
/// Same as [`form_base_clusters_parallel_with_policy`] — interrupts are
/// reported in the returned status, never as errors.
pub fn form_base_clusters_ctl(
    net: &RoadNetwork,
    dataset: &Dataset,
    insert_junctions: bool,
    threads: usize,
    policy: ErrorPolicy,
    ctl: &Control,
) -> Result<(Phase1Output, ResilienceCounters, PhaseStatus), NeatError> {
    let arena = SampleArena::from_dataset(dataset);
    let total = arena.len();
    let run = Executor::new(threads).try_map_ctl(
        total.div_ceil(CHUNK),
        ctl,
        || ShortestPathEngine::new(net),
        |c, engine, cc| {
            let range = c * CHUNK..((c + 1) * CHUNK).min(total);
            extract_chunk(net, engine, &arena, range, insert_junctions, policy, cc)
        },
    );

    let mut counters = ResilienceCounters::default();
    let mut samples_scanned = 0usize;
    let mut done = 0usize;
    let mut frag_lists: Vec<(Vec<TFragment>, Vec<u32>)> = Vec::with_capacity(run.items.len() + 1);
    for chunk in run.items.into_iter().chain(run.partial) {
        for outcome in chunk.outcomes {
            match outcome {
                SlotOutcome::Ok => {}
                SlotOutcome::Repaired => counters.repaired += 1,
                SlotOutcome::Skipped(id) => {
                    counters.skipped += 1;
                    counters.skipped_ids.push(id);
                }
                SlotOutcome::Failed(e) => return Err(e),
            }
            samples_scanned += arena.view(done).len();
            done += 1;
        }
        frag_lists.push((chunk.frags, chunk.keys));
    }
    let status = match run.halted {
        Some(why) => PhaseStatus::Partial { done, total, why },
        None => PhaseStatus::Complete,
    };
    Ok((
        group_into_clusters(&frag_lists, samples_scanned),
        counters,
        status,
    ))
}

/// One chunk's extraction: its fragments, their segment keys (mirrored
/// while the chunk is cache-hot, so the grouping counting sort scans
/// compact `u32` runs) and one outcome per finished trajectory.
struct Chunk {
    frags: Vec<TFragment>,
    keys: Vec<u32>,
    outcomes: Vec<SlotOutcome>,
}

/// Outcome of extracting one trajectory. Fragments go straight into the
/// chunk's shared buffer, so the outcome carries bookkeeping only.
enum SlotOutcome {
    Ok,
    Repaired,
    Skipped(TrajectoryId),
    Failed(NeatError),
}

/// Extracts the trajectories `range` of `arena`. A strict-mode failure
/// ends the chunk (the fold surfaces the earliest failure in dataset
/// order); an interrupt halts it, keeping the trajectories finished
/// before it.
fn extract_chunk(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    arena: &SampleArena,
    range: std::ops::Range<usize>,
    insert_junctions: bool,
    policy: ErrorPolicy,
    ctl: &Control,
) -> Result<Chunk, Halt<Chunk>> {
    // Pre-size from the chunk's sample count: fragments rarely exceed
    // half the samples, so this usually avoids every growth-copy of the
    // (large) fragment buffer.
    let mut chunk = Chunk {
        frags: Vec::with_capacity(arena.samples_in(range.clone()) / 2),
        keys: Vec::new(),
        outcomes: Vec::with_capacity(range.len()),
    };
    let mut halted = None;
    for i in range {
        let view = arena.view(i);
        match extract_view_with_policy(
            net,
            engine,
            &view,
            insert_junctions,
            policy,
            ctl,
            &mut chunk.frags,
        ) {
            Ok(outcome) => {
                let failed = matches!(outcome, SlotOutcome::Failed(_));
                chunk.outcomes.push(outcome);
                if failed {
                    break;
                }
            }
            Err(why) => {
                halted = Some(why);
                break;
            }
        }
    }
    chunk.keys = segment_keys(&chunk.frags);
    match halted {
        None => Ok(chunk),
        Some(why) => Err(Halt {
            partial: Some(chunk),
            why,
        }),
    }
}

/// Extracts one trajectory view under an error policy, appending its
/// fragments to the chunk buffer and rolling the buffer back on any
/// error. Charges the trajectory's check point first.
///
/// # Errors
///
/// Returns the interrupt that stopped the trajectory; interrupts bypass
/// the error policy — they are verdicts on the *run*, not on this
/// trajectory's data.
fn extract_view_with_policy(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    view: &TrajView<'_>,
    insert_junctions: bool,
    policy: ErrorPolicy,
    ctl: &Control,
    out: &mut Vec<TFragment>,
) -> Result<SlotOutcome, Interrupt> {
    ctl.check()?;
    let mark = out.len();
    let err = match extract_view_into(net, engine, view, insert_junctions, ctl, out) {
        Ok(()) => return Ok(SlotOutcome::Ok),
        Err(e) => e,
    };
    out.truncate(mark);
    match (err, policy) {
        (NeatError::Interrupted(why), _) => Err(why),
        (e, ErrorPolicy::Strict) => Ok(SlotOutcome::Failed(e)),
        (_, ErrorPolicy::Skip) => Ok(SlotOutcome::Skipped(view.id)),
        (_, ErrorPolicy::Repair) => {
            // Drop the points the network cannot place; if enough remain
            // to form a trajectory, extract from the rest.
            let kept: Vec<RoadLocation> = (0..view.len())
                .map(|j| view.location(j))
                .filter(|p| net.segment(p.segment).is_ok())
                .collect();
            if kept.len() >= 2 {
                if let Ok(repaired) = Trajectory::new(view.id, kept) {
                    let one = SampleArena::from_trajectories(std::slice::from_ref(&repaired));
                    match extract_view_into(net, engine, &one.view(0), insert_junctions, ctl, out) {
                        Ok(()) => return Ok(SlotOutcome::Repaired),
                        Err(NeatError::Interrupted(why)) => {
                            out.truncate(mark);
                            return Err(why);
                        }
                        Err(_) => out.truncate(mark),
                    }
                }
            }
            Ok(SlotOutcome::Skipped(view.id))
        }
    }
}

/// Appends one view's fragments to `out`, validating every sample's
/// segment against the network up front — so a trajectory the pre-scan
/// rejects never routes. On error, `out` is left with partial fragments
/// appended — the caller truncates back to its mark.
///
/// The pre-scan reports the first invalid sample's segment. (Fragments
/// are emitted in sample order, so the first invalid fragment is the run
/// of the first invalid sample. Pass-through fragments need no check —
/// their segments come from the network's own router.)
fn extract_view_into(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    view: &TrajView<'_>,
    insert_junctions: bool,
    ctl: &Control,
    out: &mut Vec<TFragment>,
) -> Result<(), NeatError> {
    let max = net.segment_count();
    if let Some(&bad) = view.segs().iter().find(|&&s| s as usize >= max) {
        // lint:allow(L4) reason=widening the u32 raw segment index back to usize is lossless
        return Err(NeatError::UnknownSegment(SegmentId::new(bad as usize)));
    }
    if insert_junctions {
        extract_fragments_view(net, engine, view, ctl, out)?;
    } else {
        view.split_into_fragments_into(out);
    }
    Ok(())
}

/// Extracts the t-fragments of one trajectory view, inserting junction
/// points at segment transitions. Scans the view's dense `&[u32]`
/// segment run for boundaries and only reconstructs `RoadLocation`s at
/// run edges; a fragment's point count is
/// `(j - run_start) + open_extra [+ 1 at a junction close]`.
fn extract_fragments_view(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    view: &TrajView<'_>,
    ctl: &Control,
    out: &mut Vec<TFragment>,
) -> Result<(), NeatError> {
    let segs = view.segs();
    let n = segs.len();
    let id = view.id;
    // Current open fragment: starts at `open_first`, covers the samples
    // `run_start..j` plus `open_extra` inserted junction points.
    let mut run_start = 0usize;
    let mut open_first = view.location(0);
    let mut open_extra = 0usize;
    let mut j = 1;
    loop {
        if j < n && segs[j] == segs[j - 1] {
            j += 1;
            continue;
        }
        let p = view.location(j - 1);
        if j == n {
            out.push(TFragment {
                trajectory: id,
                segment: open_first.segment,
                first: open_first,
                last: p,
                point_count: (j - run_start) + open_extra,
            });
            return Ok(());
        }
        // Segment transition: recover the junction chain between p and q.
        let q = view.location(j);
        match junction_chain(net, engine, p, q, ctl)? {
            Some(Chain::Contiguous(jpos, jt)) => {
                // Close the current fragment at the shared junction and
                // reopen on q's segment from that same junction.
                out.push(TFragment {
                    trajectory: id,
                    segment: open_first.segment,
                    first: open_first,
                    last: RoadLocation::new(p.segment, jpos, jt),
                    point_count: (j - run_start) + open_extra + 1,
                });
                open_first = RoadLocation::new(q.segment, jpos, jt);
                open_extra = 1;
            }
            Some(Chain::Repaired(junctions, mid_segments, times)) => {
                // Close the current fragment at the first junction.
                let j0 = RoadLocation::new(p.segment, junctions[0], times[0]);
                out.push(TFragment {
                    trajectory: id,
                    segment: open_first.segment,
                    first: open_first,
                    last: j0,
                    point_count: (j - run_start) + open_extra + 1,
                });
                // Pass-through fragments for intermediate segments.
                for (i, &mid) in mid_segments.iter().enumerate() {
                    out.push(TFragment {
                        trajectory: id,
                        segment: mid,
                        first: RoadLocation::new(mid, junctions[i], times[i]),
                        last: RoadLocation::new(mid, junctions[i + 1], times[i + 1]),
                        point_count: 2,
                    });
                }
                // Open the next fragment on q's segment at the last junction.
                open_first = RoadLocation::new(
                    q.segment,
                    *junctions.last().expect("chain non-empty"), // lint:allow(L1) reason=the chain loop pushes at least one junction/time first
                    *times.last().expect("chain non-empty"), // lint:allow(L1) reason=the chain loop pushes at least one junction/time first
                );
                open_extra = 1;
            }
            None => {
                // Unreachable gap: split without junction insertion.
                out.push(TFragment {
                    trajectory: id,
                    segment: open_first.segment,
                    first: open_first,
                    last: p,
                    point_count: (j - run_start) + open_extra,
                });
                open_first = q;
                open_extra = 0;
            }
        }
        run_start = j;
        j += 1;
    }
}

/// Junction chain travelled between two consecutive samples. The
/// contiguous case — the overwhelmingly common one — carries no heap
/// allocations, keeping the phase-1 transition loop malloc-free.
enum Chain {
    /// Contiguous segments: the single shared junction and its
    /// interpolated crossing time.
    Contiguous(neat_rnet::Point, f64),
    /// Gap repair: the traversed junctions `j0..jk`, the segments
    /// between them (`len = k`), and interpolated timestamps.
    Repaired(Vec<neat_rnet::Point>, Vec<SegmentId>, Vec<f64>),
}

/// Computes the junction chain travelled between consecutive samples `p`
/// (on segment `ep`) and `q` (on segment `eq ≠ ep`).
///
/// Returns the junction positions, the intermediate segments between them
/// (none when the segments are contiguous) and interpolated timestamps —
/// or `None` when no path connects the two segments.
fn junction_chain(
    net: &RoadNetwork,
    engine: &mut ShortestPathEngine,
    p: RoadLocation,
    q: RoadLocation,
    ctl: &Control,
) -> Result<Option<Chain>, NeatError> {
    let ep = net
        .segment(p.segment)
        .map_err(|_| NeatError::UnknownSegment(p.segment))?;
    let eq = net
        .segment(q.segment)
        .map_err(|_| NeatError::UnknownSegment(q.segment))?;

    if let Some(j) = net.intersection_of(ep.id, eq.id) {
        // Contiguous: one shared junction.
        let jpos = net.position(j);
        let d1 = p.position.distance(jpos);
        let d2 = jpos.distance(q.position);
        let total = (d1 + d2).max(1e-9);
        let t = p.time + (q.time - p.time) * d1 / total;
        return Ok(Some(Chain::Contiguous(jpos, t)));
    }

    // Non-contiguous: choose the endpoint pair minimising the detour and
    // take the shortest path between them (the map-matching repair of [14]).
    let mut best: Option<(f64, neat_rnet::path::Route, f64, f64)> = None;
    for u in [ep.a, ep.b] {
        for v in [eq.a, eq.b] {
            let d_pu = p.position.distance(net.position(u));
            let d_vq = net.position(v).distance(q.position);
            let found = engine
                .route(net, u, v, TravelMode::Directed, Some(ctl))
                .map_err(NeatError::Interrupted)?;
            if let Some(route) = found {
                let cost = d_pu + route.length + d_vq;
                if best.as_ref().is_none_or(|(c, ..)| cost < *c) {
                    best = Some((cost, route, d_pu, d_vq));
                }
            }
        }
    }
    let (cost, route, d_pu, _) = match best {
        Some(b) => b,
        None => return Ok(None),
    };
    // Interpolate times along the travelled distance.
    let span = q.time - p.time;
    let total = cost.max(1e-9);
    let mut junctions = Vec::with_capacity(route.nodes.len());
    let mut times = Vec::with_capacity(route.nodes.len());
    let mut travelled = d_pu;
    let mut prev: Option<neat_rnet::NodeId> = None;
    for (i, &n) in route.nodes.iter().enumerate() {
        if let Some(pn) = prev {
            let seg = net
                .segment(route.segments[i - 1])
                .expect("route segment exists"); // lint:allow(L1) reason=route segments come from this network's own router
            debug_assert!(seg.has_endpoint(pn));
            travelled += seg.length;
        }
        junctions.push(net.position(n));
        times.push(p.time + span * (travelled / total));
        prev = Some(n);
    }
    Ok(Some(Chain::Repaired(junctions, route.segments, times)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::Point;
    use neat_traj::TrajectoryId;

    /// Phase 1 on one thread under `policy`, with no control.
    fn one_thread(
        net: &RoadNetwork,
        data: &Dataset,
        junctions: bool,
        policy: ErrorPolicy,
    ) -> Result<(Phase1Output, ResilienceCounters), NeatError> {
        form_base_clusters_parallel_with_policy(net, data, junctions, 1, policy)
    }

    /// [`one_thread`] under [`ErrorPolicy::Strict`].
    fn strict(
        net: &RoadNetwork,
        data: &Dataset,
        junctions: bool,
    ) -> Result<Phase1Output, NeatError> {
        one_thread(net, data, junctions, ErrorPolicy::Strict).map(|(out, _)| out)
    }

    fn loc(seg: usize, x: f64, t: f64) -> RoadLocation {
        RoadLocation::new(SegmentId::new(seg), Point::new(x, 0.0), t)
    }

    fn traj(id: u64, pts: Vec<RoadLocation>) -> Trajectory {
        Trajectory::new(TrajectoryId::new(id), pts).unwrap()
    }

    /// Chain network: n0 -s0- n1 -s1- n2 -s2- n3 -s3- n4, 100 m apart.
    fn net5() -> RoadNetwork {
        chain_network(5, 100.0, 10.0)
    }

    /// One trajectory's fragments, in emission order, with junctions.
    fn extract(net: &RoadNetwork, tr: &Trajectory) -> Vec<TFragment> {
        let arena = SampleArena::from_trajectories(std::slice::from_ref(tr));
        let mut out = Vec::new();
        let mut engine = ShortestPathEngine::new(net);
        extract_fragments_view(
            net,
            &mut engine,
            &arena.view(0),
            &Control::unlimited(),
            &mut out,
        )
        .unwrap();
        out
    }

    #[test]
    fn contiguous_transition_inserts_junction() {
        let net = net5();
        // Sample on s0 at x=50, then on s1 at x=150: junction n1 at x=100.
        let tr = traj(1, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]);
        let frags = extract(&net, &tr);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].segment, SegmentId::new(0));
        // Fragment 0 ends at the junction (x=100), halfway in time.
        assert!((frags[0].last.position.x - 100.0).abs() < 1e-9);
        assert!((frags[0].last.time - 5.0).abs() < 1e-9);
        // Fragment 1 starts at the junction.
        assert!((frags[1].first.position.x - 100.0).abs() < 1e-9);
        assert_eq!(frags[1].segment, SegmentId::new(1));
        assert_eq!(frags[1].last.time, 10.0);
    }

    #[test]
    fn gap_repair_creates_passthrough_fragments() {
        let net = net5();
        // Sample on s0 then s3: s1 and s2 traversed between samples.
        let tr = traj(1, vec![loc(0, 50.0, 0.0), loc(3, 350.0, 30.0)]);
        let frags = extract(&net, &tr);
        let segs: Vec<usize> = frags.iter().map(|f| f.segment.index()).collect();
        assert_eq!(segs, vec![0, 1, 2, 3]);
        // Pass-through fragments carry the inserted junction endpoints.
        assert_eq!(frags[1].point_count, 2);
        assert!((frags[1].first.position.x - 100.0).abs() < 1e-9);
        assert!((frags[1].last.position.x - 200.0).abs() < 1e-9);
        // Times increase monotonically across the chain.
        for w in frags.windows(2) {
            assert!(w[0].last.time <= w[1].first.time + 1e-9);
        }
        assert!(frags[3].last.time <= 30.0 + 1e-9);
    }

    #[test]
    fn base_clusters_sorted_by_density() {
        let net = net5();
        let mut data = Dataset::new("d");
        // 3 trajectories over s0→s1; 1 over s2→s3.
        for id in 0..3 {
            data.push(traj(id, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]));
        }
        data.push(traj(9, vec![loc(2, 250.0, 0.0), loc(3, 350.0, 10.0)]));
        let out = strict(&net, &data, true).unwrap();
        assert_eq!(out.base_clusters.len(), 4);
        let dc = out.dense_core().unwrap();
        assert_eq!(dc.density(), 3);
        // s0 and s1 both have density 3; tie broken by segment id.
        assert_eq!(dc.segment(), SegmentId::new(0));
        for w in out.base_clusters.windows(2) {
            assert!(w[0].density() >= w[1].density());
        }
    }

    #[test]
    fn fragment_counts_accumulate() {
        let net = net5();
        let mut data = Dataset::new("d");
        data.push(traj(0, vec![loc(0, 10.0, 0.0), loc(0, 90.0, 9.0)]));
        data.push(traj(1, vec![loc(0, 10.0, 0.0), loc(1, 150.0, 20.0)]));
        let out = strict(&net, &data, true).unwrap();
        assert_eq!(out.fragment_count, 3);
        let total: usize = out.base_clusters.iter().map(BaseCluster::density).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn unknown_segment_is_reported() {
        let net = net5();
        let mut data = Dataset::new("d");
        data.push(traj(0, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        let err = strict(&net, &data, true).unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(s) if s.index() == 77));
        // Also without junction insertion.
        let err = strict(&net, &data, false).unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(_)));
    }

    #[test]
    fn empty_dataset_gives_empty_output() {
        let net = net5();
        let out = strict(&net, &Dataset::new("e"), true).unwrap();
        assert!(out.base_clusters.is_empty());
        assert!(out.dense_core().is_none());
        assert_eq!(out.fragment_count, 0);
    }

    #[test]
    fn disconnected_gap_splits_without_insertion() {
        // Two disjoint chains; trajectory jumps between them.
        let mut b = neat_rnet::RoadNetworkBuilder::new();
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(100.0, 0.0));
        let c0 = b.add_node(Point::new(0.0, 5000.0));
        let c1 = b.add_node(Point::new(100.0, 5000.0));
        let s0 = b.add_segment(a0, a1, 10.0).unwrap();
        let s1 = b.add_segment(c0, c1, 10.0).unwrap();
        let net = b.build().unwrap();
        let tr = traj(
            1,
            vec![
                RoadLocation::new(s0, Point::new(50.0, 0.0), 0.0),
                RoadLocation::new(s1, Point::new(50.0, 5000.0), 100.0),
            ],
        );
        let frags = extract(&net, &tr);
        assert_eq!(frags.len(), 2);
        assert_eq!(frags[0].point_count, 1);
        assert_eq!(frags[1].point_count, 1);
    }

    #[test]
    fn no_insertion_mode_matches_plain_split() {
        let net = net5();
        let mut data = Dataset::new("d");
        data.push(traj(0, vec![loc(0, 10.0, 0.0), loc(1, 150.0, 10.0)]));
        let out = strict(&net, &data, false).unwrap();
        assert_eq!(out.fragment_count, 2);
        // Without junction insertion the first fragment ends at the sample.
        let s0_cluster = out
            .base_clusters
            .iter()
            .find(|c| c.segment() == SegmentId::new(0))
            .unwrap();
        assert!((s0_cluster.fragments()[0].last.position.x - 10.0).abs() < 1e-9);
    }

    #[test]
    fn parallel_matches_sequential() {
        let net = net5();
        let mut data = Dataset::new("par");
        for id in 0..37 {
            data.push(traj(
                id,
                vec![
                    loc((id % 3) as usize, (id % 3) as f64 * 100.0 + 20.0, 0.0),
                    loc(
                        ((id % 3) + 1) as usize,
                        ((id % 3) + 1) as f64 * 100.0 + 30.0,
                        15.0,
                    ),
                ],
            ));
        }
        let seq = strict(&net, &data, true).unwrap();
        for threads in [1usize, 2, 4, 8] {
            let (par, _) = form_base_clusters_parallel_with_policy(
                &net,
                &data,
                true,
                threads,
                ErrorPolicy::Strict,
            )
            .unwrap();
            assert_eq!(par, seq, "threads = {threads}");
        }
    }

    #[test]
    fn parallel_propagates_errors() {
        let net = net5();
        let mut data = Dataset::new("err");
        for id in 0..8 {
            data.push(traj(id, vec![loc(0, 10.0, 0.0), loc(0, 20.0, 5.0)]));
        }
        data.push(traj(99, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        let err =
            form_base_clusters_parallel_with_policy(&net, &data, true, 4, ErrorPolicy::Strict)
                .unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(_)));
    }

    /// Mixed dataset: 3 clean trajectories, one entirely on an unknown
    /// segment, one with a single unknown-segment point amid good ones.
    fn mixed_dataset() -> Dataset {
        let mut data = Dataset::new("mixed");
        for id in 0..3 {
            data.push(traj(id, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]));
        }
        data.push(traj(90, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        data.push(traj(
            91,
            vec![loc(0, 40.0, 0.0), loc(88, 999.0, 5.0), loc(1, 160.0, 12.0)],
        ));
        data
    }

    #[test]
    fn skip_policy_isolates_bad_trajectories() {
        let net = net5();
        let data = mixed_dataset();
        let (out, counters) = one_thread(&net, &data, true, ErrorPolicy::Skip).unwrap();
        assert_eq!(counters.skipped, 2);
        assert_eq!(counters.repaired, 0);
        assert_eq!(
            counters.skipped_ids,
            vec![TrajectoryId::new(90), TrajectoryId::new(91)]
        );
        // The clean trajectories still cluster.
        assert_eq!(out.dense_core().unwrap().density(), 3);
    }

    #[test]
    fn repair_policy_drops_unknown_points_and_keeps_the_rest() {
        let net = net5();
        let data = mixed_dataset();
        let (out, counters) = one_thread(&net, &data, true, ErrorPolicy::Repair).unwrap();
        // 91 loses its unknown point but keeps 2 placeable ones; 90 has
        // nothing left and is skipped.
        assert_eq!(counters.repaired, 1);
        assert_eq!(counters.skipped, 1);
        assert_eq!(counters.skipped_ids, vec![TrajectoryId::new(90)]);
        // 91's surviving points join the s0/s1 clusters: density 4.
        assert_eq!(out.dense_core().unwrap().density(), 4);
    }

    #[test]
    fn strict_policy_matches_legacy_failfast() {
        let net = net5();
        let data = mixed_dataset();
        let err = one_thread(&net, &data, true, ErrorPolicy::Strict).unwrap_err();
        assert!(matches!(err, NeatError::UnknownSegment(_)));
    }

    #[test]
    fn parallel_policy_matches_sequential_policy() {
        let net = net5();
        let mut data = Dataset::new("par-policy");
        for id in 0..30 {
            data.push(traj(id, vec![loc(0, 50.0, 0.0), loc(1, 150.0, 10.0)]));
        }
        data.push(traj(90, vec![loc(77, 0.0, 0.0), loc(77, 1.0, 1.0)]));
        data.push(traj(
            91,
            vec![loc(0, 40.0, 0.0), loc(88, 999.0, 5.0), loc(1, 160.0, 12.0)],
        ));
        for policy in [ErrorPolicy::Skip, ErrorPolicy::Repair] {
            let seq = one_thread(&net, &data, true, policy).unwrap();
            for threads in [2usize, 4, 8] {
                let par =
                    form_base_clusters_parallel_with_policy(&net, &data, true, threads, policy)
                        .unwrap();
                assert_eq!(par, seq, "{policy:?} threads={threads}");
            }
        }
    }

    /// FNV-1a 64 of the `Debug` rendering of a phase-1 result.
    fn fingerprint(out: &Phase1Output, counters: &ResilienceCounters) -> u64 {
        format!("{out:?}\n{counters:?}")
            .bytes()
            .fold(0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
            })
    }

    /// Phase 1 reproduces the per-trajectory extractor it replaced:
    /// fingerprints, op and settled-node totals below were recorded from
    /// that extractor (one `Vec` per trajectory, no arena), for every
    /// junction mode and non-strict policy. The 600-trajectory copy spans
    /// 19 chunks, so threads 2 and 8 take the parallel path.
    #[test]
    fn phase1_matches_the_recorded_legacy_path() {
        let net = net5();
        let mut data = mixed_dataset();
        // Widen the fixture: multi-fragment trajectories and gap repair.
        for id in 100..170 {
            let s = (id % 3) as usize;
            data.push(traj(
                id,
                vec![
                    loc(s, s as f64 * 100.0 + 20.0, 0.0),
                    loc(s, s as f64 * 100.0 + 40.0, 5.0),
                    loc(s + 1, (s + 1) as f64 * 100.0 + 30.0, 15.0),
                    loc(3, 350.0, 40.0),
                ],
            ));
        }
        let mut big = Dataset::new("big");
        for rep in 0..8 {
            for tr in data.trajectories() {
                big.push(traj(tr.id().value() + rep * 1000, tr.points().to_vec()));
            }
        }
        // (dataset, junctions, policy, fingerprint, ops, settled)
        let recorded = [
            (
                &data,
                false,
                ErrorPolicy::Skip,
                0x5398_4014_6e5c_6c2b,
                75,
                0,
            ),
            (
                &data,
                false,
                ErrorPolicy::Repair,
                0x0d09_ce8d_6da5_13bd,
                75,
                0,
            ),
            (
                &data,
                true,
                ErrorPolicy::Skip,
                0x1eda_1a0b_54ac_2ede,
                351,
                276,
            ),
            (
                &data,
                true,
                ErrorPolicy::Repair,
                0x897f_0465_161f_afec,
                351,
                276,
            ),
            (
                &big,
                false,
                ErrorPolicy::Skip,
                0xdf00_a2f6_bab9_2c18,
                600,
                0,
            ),
            (
                &big,
                false,
                ErrorPolicy::Repair,
                0x4a96_6979_14ed_4909,
                600,
                0,
            ),
            (
                &big,
                true,
                ErrorPolicy::Skip,
                0x3b08_102b_7d50_f2ae,
                2808,
                2208,
            ),
            (
                &big,
                true,
                ErrorPolicy::Repair,
                0xaefa_136a_2d09_c90f,
                2808,
                2208,
            ),
        ];
        for (data, junctions, policy, fp, ops, settled) in recorded {
            for threads in [1usize, 2, 8] {
                let ctl = Control::unlimited();
                let (out, counters, status) =
                    form_base_clusters_ctl(&net, data, junctions, threads, policy, &ctl).unwrap();
                let what = format!(
                    "{} junctions={junctions} {policy:?} threads={threads}",
                    data.len()
                );
                assert_eq!(status, PhaseStatus::Complete, "{what}");
                assert_eq!(fingerprint(&out, &counters), fp, "{what}");
                assert_eq!((ctl.ops(), ctl.settled()), (ops, settled), "{what}");
            }
        }
    }

    #[test]
    fn samples_scanned_counts_every_processed_sample() {
        let net = net5();
        let data = mixed_dataset();
        // 3 clean trajectories × 2 samples + one skipped pair + one
        // 3-sample trajectory: every policy-processed sample counts.
        let (out, _) = one_thread(&net, &data, true, ErrorPolicy::Skip).unwrap();
        assert_eq!(out.samples_scanned, 3 * 2 + 2 + 3);
    }

    #[test]
    fn direction_preserved_in_fragment_order() {
        let net = net5();
        // Travel backwards: s3 → s0.
        let tr = traj(1, vec![loc(3, 350.0, 0.0), loc(0, 50.0, 30.0)]);
        let frags = extract(&net, &tr);
        let segs: Vec<usize> = frags.iter().map(|f| f.segment.index()).collect();
        assert_eq!(segs, vec![3, 2, 1, 0]);
    }
}
