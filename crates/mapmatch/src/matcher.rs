//! The look-ahead matcher: a Viterbi-style dynamic program over candidate
//! segments.

use crate::candidates::CandidateFinder;
use crate::error::MapMatchError;
use neat_rnet::geometry::project_run_onto_segment;
use neat_rnet::index::SegmentHit;
use neat_rnet::location::RawSample;
use neat_rnet::{GridScratch, Point, RoadLocation, RoadNetwork, SegmentId};
use neat_traj::{Dataset, Trajectory, TrajectoryId};

/// Deterministic work counters for a matching run.
///
/// Every field is a pure function of the input traces, the network and
/// the [`MatchConfig`] — independent of allocator state, thread count or
/// wall clock — which makes them usable as a CI regression gate (see the
/// `layers` benchmark's smoke test).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MatchStats {
    /// Samples matched across all traces.
    pub samples_matched: u64,
    /// Grid queries issued for candidate sets (radius lookups plus
    /// nearest-segment fallbacks).
    pub candidate_lookups: u64,
    /// Viterbi cost/backpointer cells filled.
    pub matrix_cells: u64,
}

impl MatchStats {
    /// Accumulates another run's counters into this one.
    pub fn merge(&mut self, other: MatchStats) {
        self.samples_matched += other.samples_matched;
        self.candidate_lookups += other.candidate_lookups;
        self.matrix_cells += other.matrix_cells;
    }
}

/// Reusable buffers for [`MapMatcher::match_trace_into`].
///
/// One scratch amortizes every per-trace allocation of the matcher: the
/// grid-lookup buffers, the flat candidate lattice, the row-major
/// cost/backpointer matrices and the snap-projection runs. Steady-state
/// batch matching performs no per-trace heap allocation beyond the output
/// locations themselves.
#[derive(Debug, Clone, Default)]
pub struct MatchScratch {
    grid: GridScratch,
    /// Per-sample candidate buffer (cleared by `candidates_into`).
    cand_buf: Vec<SegmentHit>,
    /// Flat candidate lattice: sample `i`'s candidates occupy
    /// `cand[cand_starts[i]..cand_starts[i + 1]]`.
    cand: Vec<SegmentHit>,
    cand_starts: Vec<u32>,
    /// Row-major Viterbi matrices aligned with `cand`.
    cost: Vec<f64>,
    back: Vec<u32>,
    /// Chosen candidate index (within its row) per sample.
    chosen: Vec<u32>,
    /// Gathered raw positions / projected outputs for a same-segment run.
    run_x: Vec<f64>,
    run_y: Vec<f64>,
    snap_x: Vec<f64>,
    snap_y: Vec<f64>,
}

impl MatchScratch {
    /// A fresh scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }
}

/// Map-matching parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MatchConfig {
    /// Candidate search radius in metres (≈ 3× the expected GPS error).
    pub candidate_radius_m: f64,
    /// Maximum candidates retained per sample.
    pub max_candidates: usize,
    /// Transition cost (metres-equivalent) for moving between *adjacent*
    /// segments.
    pub adjacent_cost: f64,
    /// Transition cost for moving between segments that are two hops
    /// apart (one segment skipped between samples).
    pub skip_cost: f64,
    /// Transition cost for any larger discontinuity — effectively a jump
    /// penalty that the look-ahead optimisation avoids when possible.
    pub jump_cost: f64,
}

impl Default for MatchConfig {
    fn default() -> Self {
        MatchConfig {
            candidate_radius_m: 30.0,
            max_candidates: 4,
            adjacent_cost: 2.0,
            skip_cost: 10.0,
            jump_cost: 200.0,
        }
    }
}

impl MatchConfig {
    fn validate(&self) -> Result<(), MapMatchError> {
        // NaN must fail too, hence the negated comparison.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(self.candidate_radius_m > 0.0) {
            return Err(MapMatchError::InvalidConfig(
                "candidate radius must be positive".into(),
            ));
        }
        if self.max_candidates == 0 {
            return Err(MapMatchError::InvalidConfig(
                "max candidates must be at least 1".into(),
            ));
        }
        Ok(())
    }
}

/// A reusable map matcher bound to one road network.
#[derive(Debug, Clone)]
pub struct MapMatcher<'a> {
    net: &'a RoadNetwork,
    finder: CandidateFinder<'a>,
    config: MatchConfig,
}

impl<'a> MapMatcher<'a> {
    /// Creates a matcher over `net`.
    pub fn new(net: &'a RoadNetwork, config: MatchConfig) -> Self {
        let finder = CandidateFinder::new(net, config.candidate_radius_m, config.max_candidates);
        MapMatcher {
            net,
            finder,
            config,
        }
    }

    /// Matches one raw trace to road-network locations.
    ///
    /// Every output location carries the chosen segment id and the sample
    /// position snapped onto that segment's chord; timestamps are
    /// preserved.
    ///
    /// # Errors
    ///
    /// [`MapMatchError::EmptyTrace`] for an empty input,
    /// [`MapMatchError::EmptyNetwork`] when the network has no segments,
    /// and [`MapMatchError::InvalidConfig`] for bad parameters.
    pub fn match_trace(&self, trace: &[RawSample]) -> Result<Vec<RoadLocation>, MapMatchError> {
        let mut scratch = MatchScratch::new();
        let mut out = Vec::new();
        self.match_trace_into(trace, &mut scratch, &mut out)?;
        Ok(out)
    }

    /// Allocation-reusing variant of [`MapMatcher::match_trace`]: clears
    /// `out` and fills it with the matched locations, reusing `scratch`
    /// for the candidate lattice, the Viterbi matrices and the snap
    /// buffers. Returns the deterministic work counters of this trace.
    ///
    /// # Errors
    ///
    /// Same contract as [`MapMatcher::match_trace`].
    pub fn match_trace_into(
        &self,
        trace: &[RawSample],
        scratch: &mut MatchScratch,
        out: &mut Vec<RoadLocation>,
    ) -> Result<MatchStats, MapMatchError> {
        self.config.validate()?;
        if trace.is_empty() {
            return Err(MapMatchError::EmptyTrace);
        }
        if self.net.segment_count() == 0 {
            return Err(MapMatchError::EmptyNetwork);
        }
        let mut stats = MatchStats::default();

        // Candidate sets per sample, packed into one flat lattice:
        // sample i's candidates live in cand[starts[i]..starts[i + 1]].
        let n = trace.len();
        scratch.cand.clear();
        scratch.cand_starts.clear();
        scratch.cand_starts.push(0);
        for s in trace {
            let queries =
                self.finder
                    .candidates_into(s.position, &mut scratch.grid, &mut scratch.cand_buf);
            stats.candidate_lookups += queries as u64;
            scratch.cand.extend_from_slice(&scratch.cand_buf);
            scratch.cand_starts.push(scratch.cand.len() as u32); // lint:allow(L4) reason=lattice width is samples x max_candidates, far below u32::MAX
        }
        let MatchScratch {
            cand,
            cand_starts,
            cost,
            back,
            chosen,
            run_x,
            run_y,
            snap_x,
            snap_y,
            ..
        } = scratch;
        let cand = &cand[..];
        let starts = |i: usize| cand_starts[i] as usize;

        // Viterbi over the candidate lattice: cost = snap distance +
        // transition discontinuity. This is the "look-ahead" — the global
        // optimum can prefer a slightly-farther candidate now to avoid a
        // large discontinuity later (e.g. parallel-road flip-flops).
        // Row-major flat matrices aligned with the lattice keep the inner
        // k-scan on one contiguous cache line per row.
        cost.clear();
        cost.resize(cand.len(), 0.0);
        back.clear();
        back.resize(cand.len(), 0);
        for j in starts(0)..starts(1) {
            cost[j] = cand[j].distance;
        }
        for i in 1..n {
            let (p0, p1) = (starts(i - 1), starts(i));
            for j in starts(i)..starts(i + 1) {
                let mut best = f64::INFINITY;
                let mut best_k = 0usize;
                for (k, e) in (p0..p1).enumerate() {
                    let t = self.transition_cost(cand[e].segment, cand[j].segment);
                    let c = cost[e] + t;
                    if c < best {
                        best = c;
                        best_k = k;
                    }
                }
                cost[j] = best + cand[j].distance;
                back[j] = best_k as u32; // lint:allow(L4) reason=row width is at most max_candidates
            }
        }
        stats.matrix_cells += cand.len() as u64;

        // Backtrack the optimal assignment.
        let last = starts(n - 1);
        let mut idx = (0..starts(n) - last)
            .min_by(|&a, &b| cost[last + a].total_cmp(&cost[last + b]))
            .expect("candidate sets are non-empty"); // lint:allow(L1) reason=candidate sets are checked non-empty when built
        chosen.clear();
        chosen.resize(n, 0);
        chosen[n - 1] = idx as u32; // lint:allow(L4) reason=row width is at most max_candidates
        for i in (1..n).rev() {
            idx = back[starts(i) + idx] as usize;
            chosen[i - 1] = idx as u32; // lint:allow(L4) reason=row width is at most max_candidates
        }

        // Snap each maximal same-segment run of samples through the
        // widened projection kernel (bit-identical to the scalar
        // point-at-a-time projection).
        out.clear();
        out.reserve(n);
        let mut i = 0usize;
        while i < n {
            let sid = cand[starts(i) + chosen[i] as usize].segment;
            let mut j = i + 1;
            while j < n && cand[starts(j) + chosen[j] as usize].segment == sid {
                j += 1;
            }
            let seg = self.net.segment(sid).expect("candidate segment exists"); // lint:allow(L1) reason=candidates are drawn from this network's own index
            let a = self.net.position(seg.a);
            let b = self.net.position(seg.b);
            run_x.clear();
            run_y.clear();
            for s in &trace[i..j] {
                run_x.push(s.position.x);
                run_y.push(s.position.y);
            }
            project_run_onto_segment(run_x, run_y, a, b, snap_x, snap_y);
            for (k, s) in trace[i..j].iter().enumerate() {
                out.push(RoadLocation::new(
                    sid,
                    Point::new(snap_x[k], snap_y[k]),
                    s.time,
                ));
            }
            i = j;
        }
        stats.samples_matched += n as u64;
        Ok(stats)
    }

    /// Matches a batch of traces into a [`Dataset`]. Traces that fail to
    /// produce a valid trajectory (fewer than two samples) are skipped and
    /// counted in the second return value.
    ///
    /// # Errors
    ///
    /// Propagates [`MapMatchError::EmptyNetwork`] / invalid-config errors;
    /// per-trace empty inputs are treated as skips instead.
    pub fn match_traces(
        &self,
        traces: &[Vec<RawSample>],
        name: impl Into<String>,
    ) -> Result<(Dataset, usize), MapMatchError> {
        let (dataset, skipped, _) = self.match_traces_stats(traces, name)?;
        Ok((dataset, skipped))
    }

    /// [`MapMatcher::match_traces`] with the batch's deterministic work
    /// counters. One [`MatchScratch`] is reused across the whole batch,
    /// so steady-state matching allocates only the output locations.
    ///
    /// # Errors
    ///
    /// Same contract as [`MapMatcher::match_traces`].
    pub fn match_traces_stats(
        &self,
        traces: &[Vec<RawSample>],
        name: impl Into<String>,
    ) -> Result<(Dataset, usize, MatchStats), MapMatchError> {
        self.config.validate()?;
        if self.net.segment_count() == 0 {
            return Err(MapMatchError::EmptyNetwork);
        }
        let mut dataset = Dataset::new(name);
        let mut skipped = 0usize;
        let mut stats = MatchStats::default();
        let mut scratch = MatchScratch::new();
        for (i, trace) in traces.iter().enumerate() {
            if trace.len() < 2 {
                skipped += 1;
                continue;
            }
            let mut pts = Vec::new();
            stats.merge(self.match_trace_into(trace, &mut scratch, &mut pts)?);
            match Trajectory::new(TrajectoryId::new(i as u64), pts) {
                Ok(tr) => dataset.push(tr),
                Err(_) => skipped += 1,
            }
        }
        Ok((dataset, skipped, stats))
    }

    /// Discontinuity cost between consecutive segment assignments.
    fn transition_cost(&self, from: SegmentId, to: SegmentId) -> f64 {
        if from == to {
            return 0.0;
        }
        if self.net.intersection_of(from, to).is_some() {
            return self.config.adjacent_cost;
        }
        // Two hops: a shared neighbour exists.
        let two_hop = self
            .net
            .adjacent_segments(from)
            .iter()
            .any(|&m| self.net.intersection_of(m, to).is_some());
        if two_hop {
            self.config.skip_cost
        } else {
            self.config.jump_cost
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadNetworkBuilder};

    #[test]
    fn clean_trace_matches_exactly() {
        let net = chain_network(5, 100.0, 10.0);
        let m = MapMatcher::new(&net, MatchConfig::default());
        let trace: Vec<RawSample> = (0..8)
            .map(|i| RawSample::new(Point::new(i as f64 * 50.0 + 25.0, 0.0), i as f64))
            .collect();
        let out = m.match_trace(&trace).unwrap();
        for (s, o) in trace.iter().zip(&out) {
            assert_eq!(o.time, s.time);
            let expect = (s.position.x / 100.0).floor() as usize;
            assert_eq!(o.segment.index(), expect.min(3));
        }
    }

    #[test]
    fn noisy_trace_snaps_to_road() {
        let net = chain_network(5, 100.0, 10.0);
        let m = MapMatcher::new(&net, MatchConfig::default());
        let trace = vec![
            RawSample::new(Point::new(50.0, 8.0), 0.0),
            RawSample::new(Point::new(150.0, -6.0), 10.0),
        ];
        let out = m.match_trace(&trace).unwrap();
        assert_eq!(out[0].position.y, 0.0); // snapped onto the chord
        assert_eq!(out[1].position.y, 0.0);
    }

    /// Two parallel roads 20 m apart — the SLAMM paper's flagship failure
    /// case for greedy matching.
    fn parallel_roads() -> neat_rnet::RoadNetwork {
        let mut b = RoadNetworkBuilder::new();
        let mut south = Vec::new();
        let mut north = Vec::new();
        for i in 0..5 {
            south.push(b.add_node(Point::new(i as f64 * 100.0, 0.0)));
            north.push(b.add_node(Point::new(i as f64 * 100.0, 20.0)));
        }
        for i in 0..4 {
            b.add_segment(south[i], south[i + 1], 10.0).unwrap(); // sids 0,2,4,6
            b.add_segment(north[i], north[i + 1], 10.0).unwrap(); // sids 1,3,5,7
        }
        // Connect the two roads at the far ends only.
        b.add_segment(south[0], north[0], 10.0).unwrap();
        b.add_segment(south[4], north[4], 10.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn lookahead_resolves_parallel_road_ambiguity() {
        let net = parallel_roads();
        let m = MapMatcher::new(&net, MatchConfig::default());
        // Object drives the south road; one noisy sample leans north
        // (y = 12 > 10 = midline) but the consistent choice is south.
        let trace = vec![
            RawSample::new(Point::new(50.0, 1.0), 0.0),
            RawSample::new(Point::new(150.0, 12.0), 10.0),
            RawSample::new(Point::new(250.0, 2.0), 20.0),
            RawSample::new(Point::new(350.0, -1.0), 30.0),
        ];
        let out = m.match_trace(&trace).unwrap();
        // A greedy nearest-segment matcher would flip sample 1 to the
        // north road (sid 3); look-ahead keeps the whole path on the
        // south road (sids 0, 2, 4, 6).
        let sids: Vec<usize> = out.iter().map(|o| o.segment.index()).collect();
        assert_eq!(sids, vec![0, 2, 4, 6]);
    }

    #[test]
    fn empty_trace_is_an_error() {
        let net = chain_network(3, 100.0, 10.0);
        let m = MapMatcher::new(&net, MatchConfig::default());
        assert_eq!(m.match_trace(&[]), Err(MapMatchError::EmptyTrace));
    }

    #[test]
    fn empty_network_is_an_error() {
        let net = RoadNetworkBuilder::new().build().unwrap();
        let m = MapMatcher::new(&net, MatchConfig::default());
        let t = vec![RawSample::new(Point::new(0.0, 0.0), 0.0)];
        assert_eq!(m.match_trace(&t), Err(MapMatchError::EmptyNetwork));
    }

    #[test]
    fn invalid_config_rejected() {
        let net = chain_network(3, 100.0, 10.0);
        let c = MatchConfig {
            candidate_radius_m: 0.0,
            ..MatchConfig::default()
        };
        let m = MapMatcher::new(&net, MatchConfig::default());
        // Validation happens at match time with the stored config; build a
        // matcher with the bad config directly.
        let bad = MapMatcher::new(&net, c);
        let t = vec![RawSample::new(Point::new(0.0, 0.0), 0.0)];
        assert!(matches!(
            bad.match_trace(&t),
            Err(MapMatchError::InvalidConfig(_))
        ));
        drop(m);
    }

    #[test]
    fn batch_matching_skips_short_traces() {
        let net = chain_network(4, 100.0, 10.0);
        let m = MapMatcher::new(&net, MatchConfig::default());
        let traces = vec![
            vec![
                RawSample::new(Point::new(10.0, 0.0), 0.0),
                RawSample::new(Point::new(90.0, 0.0), 8.0),
            ],
            vec![RawSample::new(Point::new(10.0, 0.0), 0.0)], // too short
            vec![],
        ];
        let (ds, skipped) = m.match_traces(&traces, "batch").unwrap();
        assert_eq!(ds.len(), 1);
        assert_eq!(skipped, 2);
    }
}
