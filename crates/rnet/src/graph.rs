//! The road-network graph `G = (V, E)` of Section II-A.
//!
//! Junction nodes carry planar coordinates; road segments connect two
//! junctions and carry a length, a speed limit and a direction flag. A
//! bidirectional road is a single [`Segment`] (both directed edges share one
//! `sid`, as in the paper). The adjacency operators of the paper are
//! provided directly: `L(e)` is [`RoadNetwork::adjacent_segments`],
//! `L_n(e)` is [`RoadNetwork::adjacent_segments_at`], and `I(ei, ej)` is
//! [`RoadNetwork::intersection_of`].
//!
//! Adjacency is one flat CSR (compressed sparse row) layout built once by
//! [`RoadNetworkBuilder::build`]: per-junction row offsets into two
//! parallel arrays, the incident segment ids (sorted by id within a row,
//! served by [`RoadNetwork::incident_segments`]) and one 16-byte
//! [`IncidentArc`] per segment end (far junction, length, direction flag,
//! served by [`RoadNetwork::incident_arcs`]). A shortest-path search
//! relaxes a junction's edges from one contiguous run of arcs instead of
//! a per-junction list plus a segment lookup per edge.

use crate::error::RnetError;
use crate::geometry::{Bbox, Point};
use crate::ids::{NodeId, SegmentId};
use serde::{Deserialize, Serialize};

/// A junction node of the road network.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Node {
    /// Identifier (dense index).
    pub id: NodeId,
    /// Planar position of the junction in metres.
    pub position: Point,
}

/// A road segment connecting two junctions.
///
/// The segment direction of travel is `a → b`; when `oneway` is `false` the
/// segment may also be travelled `b → a` (the paper's edge pair
/// `(sid, ni nj)`, `(sid, nj ni)`).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Segment {
    /// Identifier (the paper's `sid`).
    pub id: SegmentId,
    /// Start junction.
    pub a: NodeId,
    /// End junction.
    pub b: NodeId,
    /// Polyline length in metres (≥ the chord between `a` and `b`).
    pub length: f64,
    /// Speed limit in metres per second.
    pub speed_limit: f64,
    /// `true` if travel is only permitted from `a` to `b`.
    pub oneway: bool,
}

impl Segment {
    /// The endpoint opposite `n`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of this segment.
    pub fn other_endpoint(&self, n: NodeId) -> NodeId {
        if n == self.a {
            self.b
        } else if n == self.b {
            self.a
        } else {
            panic!("node {n} is not an endpoint of segment {}", self.id) // lint:allow(L1) reason=documented precondition: n must be one of the segment's endpoints
        }
    }

    /// Whether `n` is one of this segment's endpoints.
    pub fn has_endpoint(&self, n: NodeId) -> bool {
        n == self.a || n == self.b
    }

    /// Whether the segment can be travelled from `from` towards the other
    /// endpoint, honouring the one-way restriction.
    pub fn traversable_from(&self, from: NodeId) -> bool {
        from == self.a || (!self.oneway && from == self.b)
    }

    /// Free-flow travel time over the full segment in seconds.
    pub fn travel_time(&self) -> f64 {
        self.length / self.speed_limit
    }
}

/// One end of a segment as seen from a junction: a hop from that junction
/// across the segment to its other endpoint.
///
/// [`RoadNetwork::incident_arcs`] lists them per junction, parallel to
/// [`RoadNetwork::incident_segments`], so a search relaxes a junction's
/// edges from one contiguous run without looking the segments up.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct IncidentArc {
    /// The segment's other endpoint.
    pub to: NodeId,
    /// Whether the segment may be travelled from this junction to `to`
    /// (`false` only at the `b` end of a one-way segment).
    pub forward: bool,
    /// The segment's length in metres.
    pub length: f64,
}

// Four arcs fill a 64-byte cache line; the search loop's speed rests on it.
const _: () = assert!(std::mem::size_of::<IncidentArc>() == 16);

/// Aggregate statistics of a road network, matching the columns of Table I
/// in the paper (junctions, segments, total and average segment length,
/// junction degree).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct NetworkStats {
    /// Number of junction nodes.
    pub junctions: usize,
    /// Number of road segments.
    pub segments: usize,
    /// Sum of segment lengths in kilometres.
    pub total_length_km: f64,
    /// Mean segment length in metres.
    pub avg_segment_length_m: f64,
    /// Mean junction degree (segments incident per junction).
    pub avg_degree: f64,
    /// Maximum junction degree.
    pub max_degree: usize,
}

/// An immutable road-network graph.
///
/// Build one with [`RoadNetworkBuilder`]:
///
/// ```
/// use neat_rnet::{Point, RoadNetworkBuilder};
///
/// # fn main() -> Result<(), neat_rnet::RnetError> {
/// let mut b = RoadNetworkBuilder::new();
/// let n0 = b.add_node(Point::new(0.0, 0.0));
/// let n1 = b.add_node(Point::new(100.0, 0.0));
/// let n2 = b.add_node(Point::new(100.0, 100.0));
/// b.add_segment(n0, n1, 13.9)?;
/// b.add_segment(n1, n2, 13.9)?;
/// let net = b.build()?;
/// assert_eq!(net.node_count(), 3);
/// assert_eq!(net.segment_count(), 2);
/// assert_eq!(net.degree(n1), 2);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoadNetwork {
    nodes: Vec<Node>,
    segments: Vec<Segment>,
    /// CSR row bounds: the arcs leaving node `n` are
    /// `arc_start[n]..arc_start[n + 1]` in `arc_seg` and `arcs`.
    arc_start: Vec<u32>,
    /// Segment of each arc; within a node's row, sorted by id.
    arc_seg: Vec<SegmentId>,
    /// The arc records, parallel to `arc_seg`.
    arcs: Vec<IncidentArc>,
}

impl RoadNetwork {
    /// Number of junction nodes.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of road segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Looks up a node.
    ///
    /// # Errors
    ///
    /// Returns [`RnetError::UnknownNode`] if the id is out of range.
    pub fn node(&self, id: NodeId) -> Result<&Node, RnetError> {
        self.nodes.get(id.index()).ok_or(RnetError::UnknownNode(id))
    }

    /// Looks up a segment.
    ///
    /// # Errors
    ///
    /// Returns [`RnetError::UnknownSegment`] if the id is out of range.
    pub fn segment(&self, id: SegmentId) -> Result<&Segment, RnetError> {
        self.segments
            .get(id.index())
            .ok_or(RnetError::UnknownSegment(id))
    }

    /// Position of a node. Panics on an invalid id; use [`RoadNetwork::node`]
    /// for fallible lookup.
    pub fn position(&self, id: NodeId) -> Point {
        self.nodes[id.index()].position
    }

    /// Iterates over all nodes in id order.
    pub fn nodes(&self) -> impl ExactSizeIterator<Item = &Node> {
        self.nodes.iter()
    }

    /// Iterates over all segments in id order.
    pub fn segments(&self) -> impl ExactSizeIterator<Item = &Segment> {
        self.segments.iter()
    }

    /// The CSR row of junction `n` in `arc_seg` and `arcs`.
    fn row(&self, n: NodeId) -> std::ops::Range<usize> {
        self.arc_start[n.index()] as usize..self.arc_start[n.index() + 1] as usize
    }

    /// Segments incident to junction `n`, sorted by id.
    pub fn incident_segments(&self, n: NodeId) -> &[SegmentId] {
        &self.arc_seg[self.row(n)]
    }

    /// The arcs leaving junction `n`, one per incident segment, in the
    /// order of [`RoadNetwork::incident_segments`].
    pub fn incident_arcs(&self, n: NodeId) -> &[IncidentArc] {
        &self.arcs[self.row(n)]
    }

    /// Speed limit of segment `id` in metres per second. Panics on an
    /// invalid id; use [`RoadNetwork::segment`] for fallible lookup.
    pub(crate) fn speed_limit(&self, id: SegmentId) -> f64 {
        self.segments[id.index()].speed_limit
    }

    /// Junction degree of `n` (number of incident segments).
    pub fn degree(&self, n: NodeId) -> usize {
        self.row(n).len()
    }

    /// The paper's `L_n(e)`: segments adjacent to `seg` that connect to it
    /// at junction `n` (excluding `seg` itself). Empty when `n` is a
    /// dead-end endpoint of `seg`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is not an endpoint of `seg`.
    pub fn adjacent_segments_at(&self, seg: SegmentId, n: NodeId) -> Vec<SegmentId> {
        let s = &self.segments[seg.index()];
        assert!(
            s.has_endpoint(n),
            "node {n} is not an endpoint of segment {seg}"
        );
        self.incident_segments(n)
            .iter()
            .copied()
            .filter(|&other| other != seg)
            .collect()
    }

    /// The paper's `L(e) = L_a(e) ∪ L_b(e)`: all segments sharing an
    /// endpoint with `seg`.
    pub fn adjacent_segments(&self, seg: SegmentId) -> Vec<SegmentId> {
        let s = &self.segments[seg.index()];
        let mut out = self.adjacent_segments_at(seg, s.a);
        for other in self.adjacent_segments_at(seg, s.b) {
            // A parallel segment can touch `seg` at both endpoints; list it once.
            if !out.contains(&other) {
                out.push(other);
            }
        }
        out
    }

    /// The paper's `I(ei, ej)`: the junction shared by two adjacent
    /// segments, or `None` when they do not touch. When two segments share
    /// both endpoints (parallel roads) the endpoint with the smaller id is
    /// returned, keeping the operator deterministic.
    pub fn intersection_of(&self, ei: SegmentId, ej: SegmentId) -> Option<NodeId> {
        let (si, sj) = (&self.segments[ei.index()], &self.segments[ej.index()]);
        // Allocation-free (this sits on the phase-1 transition hot path):
        // of the up-to-two shared endpoints, return the smallest id —
        // exactly what collect-sort-first used to produce.
        let a = sj.has_endpoint(si.a).then_some(si.a);
        let b = sj.has_endpoint(si.b).then_some(si.b);
        match (a, b) {
            (Some(x), Some(y)) => Some(x.min(y)),
            (x, y) => x.or(y),
        }
    }

    /// Whether the ordered list of segments forms a route (Section II-A): a
    /// network path where each consecutive pair is adjacent, and consecutive
    /// pairs connect end-to-end rather than pivoting on a shared junction.
    ///
    /// An empty list and a single segment are trivially routes.
    pub fn is_route(&self, segs: &[SegmentId]) -> bool {
        if segs.len() < 2 {
            return true;
        }
        // Determine the junction chain: each consecutive pair must share a
        // junction, and the shared junctions must alternate along the route
        // (the route must leave each segment via the endpoint it did not
        // enter from).
        let mut entry: Option<NodeId> = None;
        for w in segs.windows(2) {
            if w[0] == w[1] {
                // A segment is not adjacent to itself: L(e) excludes e.
                return false;
            }
            let shared = match self.intersection_of(w[0], w[1]) {
                Some(n) => n,
                None => return false,
            };
            let s0 = &self.segments[w[0].index()];
            if let Some(e) = entry {
                // Must exit w[0] via the endpoint opposite where we entered.
                if s0.other_endpoint(e) != shared {
                    // Parallel segments share both endpoints; allow exiting
                    // via the other shared junction when available.
                    let s1 = &self.segments[w[1].index()];
                    let alt = s0.other_endpoint(e);
                    if !s1.has_endpoint(alt) {
                        return false;
                    }
                    entry = Some(alt);
                    continue;
                }
            }
            entry = Some(shared);
        }
        true
    }

    /// Straight-line distance between two junctions — the Euclidean lower
    /// bound (ELB) of the network distance used in Phase 3 of NEAT.
    pub fn euclidean_distance(&self, a: NodeId, b: NodeId) -> f64 {
        self.position(a).distance(self.position(b))
    }

    /// Bounding box of all node positions.
    ///
    /// # Errors
    ///
    /// Returns [`RnetError::EmptyNetwork`] when the network has no nodes.
    pub fn bbox(&self) -> Result<Bbox, RnetError> {
        if self.nodes.is_empty() {
            return Err(RnetError::EmptyNetwork);
        }
        let mut b = Bbox::empty();
        for n in &self.nodes {
            b.expand(n.position);
        }
        Ok(b)
    }

    /// Extracts the sub-network inside `clip`: the nodes whose positions
    /// lie in the box, and the segments with *both* endpoints retained.
    /// Node and segment ids are re-assigned densely; the returned map
    /// gives, for each new segment id, the original segment id (index =
    /// new id).
    ///
    /// Useful for studying a district of a large map, or shrinking a
    /// generated network to a region of interest.
    pub fn clip(&self, clip: Bbox) -> (RoadNetwork, Vec<SegmentId>) {
        let mut builder = RoadNetworkBuilder::new();
        let mut node_map: Vec<Option<NodeId>> = vec![None; self.nodes.len()];
        for n in &self.nodes {
            if clip.contains(n.position) {
                node_map[n.id.index()] = Some(builder.add_node(n.position));
            }
        }
        let mut segment_map = Vec::new();
        for s in &self.segments {
            if let (Some(a), Some(b)) = (node_map[s.a.index()], node_map[s.b.index()]) {
                builder
                    .add_segment_detailed(a, b, s.length, s.speed_limit, s.oneway)
                    .expect("clipped segment stays valid"); // lint:allow(L1) reason=clipping preserves segment validity (distinct endpoints, positive length)
                segment_map.push(s.id);
            }
        }
        (
            builder.build().expect("clipped network is valid"), // lint:allow(L1) reason=the clipped network is a subgraph of an already-valid network
            segment_map,
        )
    }

    /// Computes the Table-I style aggregate statistics of this network.
    pub fn stats(&self) -> NetworkStats {
        let total: f64 = self.segments.iter().map(|s| s.length).sum();
        let max_degree = self.arc_start.windows(2).map(|w| w[1] - w[0]).max();
        let junctions = self.nodes.len();
        NetworkStats {
            junctions,
            segments: self.segments.len(),
            total_length_km: total / 1000.0,
            avg_segment_length_m: if self.segments.is_empty() {
                0.0
            } else {
                total / self.segments.len() as f64
            },
            avg_degree: if junctions == 0 {
                0.0
            } else {
                self.arcs.len() as f64 / junctions as f64
            },
            max_degree: max_degree.map_or(0, |d| d as usize),
        }
    }

    /// Whether every node can reach every other node ignoring one-way
    /// restrictions (the generators guarantee this).
    pub fn is_connected(&self) -> bool {
        if self.nodes.is_empty() {
            return true;
        }
        let mut seen = vec![false; self.nodes.len()];
        let mut stack = vec![NodeId::new(0)];
        seen[0] = true;
        let mut count = 1usize;
        while let Some(n) = stack.pop() {
            for arc in self.incident_arcs(n) {
                let other = arc.to;
                if !seen[other.index()] {
                    seen[other.index()] = true;
                    count += 1;
                    stack.push(other);
                }
            }
        }
        count == self.nodes.len()
    }
}

/// Incremental builder for [`RoadNetwork`].
///
/// Nodes and segments are validated as they are added; [`RoadNetworkBuilder::build`]
/// finalises the adjacency structure.
#[derive(Debug, Clone, Default)]
pub struct RoadNetworkBuilder {
    nodes: Vec<Node>,
    segments: Vec<Segment>,
}

impl RoadNetworkBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a builder with preallocated capacity.
    pub fn with_capacity(nodes: usize, segments: usize) -> Self {
        RoadNetworkBuilder {
            nodes: Vec::with_capacity(nodes),
            segments: Vec::with_capacity(segments),
        }
    }

    /// Number of nodes added so far.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of segments added so far.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Adds a junction at `position`, returning its id.
    pub fn add_node(&mut self, position: Point) -> NodeId {
        let id = NodeId::new(self.nodes.len());
        self.nodes.push(Node { id, position });
        id
    }

    /// Adds a bidirectional segment between `a` and `b` whose length is the
    /// straight-line distance between the endpoints.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is unknown, the segment is a
    /// self-loop or the speed limit is non-positive.
    pub fn add_segment(
        &mut self,
        a: NodeId,
        b: NodeId,
        speed_limit: f64,
    ) -> Result<SegmentId, RnetError> {
        let length = self.chord(a, b)?;
        self.add_segment_detailed(a, b, length, speed_limit, false)
    }

    /// Adds a segment with explicit length, speed limit and direction.
    ///
    /// # Errors
    ///
    /// Returns an error if an endpoint is unknown, the segment is a
    /// self-loop, the length, speed limit or chord is NaN or infinite,
    /// the length is shorter than the chord between the endpoints, or
    /// the speed limit is non-positive.
    pub fn add_segment_detailed(
        &mut self,
        a: NodeId,
        b: NodeId,
        length: f64,
        speed_limit: f64,
        oneway: bool,
    ) -> Result<SegmentId, RnetError> {
        let chord = self.chord(a, b)?;
        if a == b {
            return Err(RnetError::SelfLoop(a));
        }
        let id = SegmentId::new(self.segments.len());
        // NaN fails every comparison below, so it must be caught first:
        // the A* heuristic and the ELB filter rely on length >= chord.
        if !(length.is_finite() && speed_limit.is_finite() && chord.is_finite()) {
            return Err(RnetError::NonFiniteSegment {
                segment: id,
                length,
                speed_limit,
            });
        }
        if length < chord - 1e-6 {
            return Err(RnetError::LengthShorterThanChord {
                segment: id,
                declared: length,
                chord,
            });
        }
        if speed_limit <= 0.0 {
            return Err(RnetError::NonPositiveSpeed(id));
        }
        self.segments.push(Segment {
            id,
            a,
            b,
            length,
            speed_limit,
            oneway,
        });
        Ok(id)
    }

    fn chord(&self, a: NodeId, b: NodeId) -> Result<f64, RnetError> {
        let pa = self
            .nodes
            .get(a.index())
            .ok_or(RnetError::UnknownNode(a))?
            .position;
        let pb = self
            .nodes
            .get(b.index())
            .ok_or(RnetError::UnknownNode(b))?
            .position;
        Ok(pa.distance(pb))
    }

    /// Finalises the network, laying out the per-junction arcs.
    ///
    /// One counting-sort pass over the segments in id order fills each
    /// junction's row, so every row comes out sorted by segment id.
    ///
    /// # Errors
    ///
    /// Returns [`RnetError::TooManyArcs`] when the network has more
    /// segment ends than the `u32` row offsets can address.
    pub fn build(self) -> Result<RoadNetwork, RnetError> {
        let total = arc_total(self.segments.len())?;
        let n = self.nodes.len();
        let mut arc_start = vec![0u32; n + 1];
        for s in &self.segments {
            arc_start[s.a.index() + 1] += 1;
            arc_start[s.b.index() + 1] += 1;
        }
        for i in 0..n {
            arc_start[i + 1] += arc_start[i];
        }
        debug_assert_eq!(arc_start[n], total);
        let mut next = arc_start[..n].to_vec();
        let blank = IncidentArc {
            to: NodeId::new(0),
            forward: false,
            length: 0.0,
        };
        let mut arc_seg = vec![SegmentId::new(0); total as usize];
        let mut arcs = vec![blank; total as usize];
        for s in &self.segments {
            for (from, to, forward) in [(s.a, s.b, true), (s.b, s.a, !s.oneway)] {
                let slot = &mut next[from.index()];
                let i = *slot as usize;
                *slot += 1;
                arc_seg[i] = s.id;
                arcs[i] = IncidentArc {
                    to,
                    forward,
                    length: s.length,
                };
            }
        }
        debug_assert!(
            arc_start
                .windows(2)
                .all(|w| arc_seg[w[0] as usize..w[1] as usize].is_sorted_by(|x, y| x < y)),
            "every row is sorted by segment id"
        );
        Ok(RoadNetwork {
            nodes: self.nodes,
            segments: self.segments,
            arc_start,
            arc_seg,
            arcs,
        })
    }
}

/// The arc count of a network with `segments` segments (two ends each),
/// or [`RnetError::TooManyArcs`] when the `u32` row offsets cannot hold it.
fn arc_total(segments: usize) -> Result<u32, RnetError> {
    segments
        .checked_mul(2)
        .and_then(|arcs| u32::try_from(arcs).ok())
        .ok_or(RnetError::TooManyArcs { segments })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Builds the small network of Figure 1(b): a hub n2 connected to
    /// n1, n3, n4 and n5.
    fn star_network() -> (RoadNetwork, Vec<NodeId>, Vec<SegmentId>) {
        let mut b = RoadNetworkBuilder::new();
        let n1 = b.add_node(Point::new(-100.0, 0.0));
        let n2 = b.add_node(Point::new(0.0, 0.0));
        let n3 = b.add_node(Point::new(100.0, 50.0));
        let n4 = b.add_node(Point::new(100.0, 0.0));
        let n5 = b.add_node(Point::new(100.0, -50.0));
        let s12 = b.add_segment(n1, n2, 13.9).unwrap();
        let s23 = b.add_segment(n2, n3, 13.9).unwrap();
        let s24 = b.add_segment(n2, n4, 13.9).unwrap();
        let s25 = b.add_segment(n2, n5, 13.9).unwrap();
        let net = b.build().unwrap();
        (net, vec![n1, n2, n3, n4, n5], vec![s12, s23, s24, s25])
    }

    #[test]
    fn arc_count_must_fit_the_row_offsets() {
        assert_eq!(arc_total(0), Ok(0));
        let most = (u32::MAX / 2) as usize;
        assert_eq!(arc_total(most), Ok(u32::MAX - 1));
        for segments in [most + 1, usize::MAX / 2 + 1, usize::MAX] {
            assert_eq!(
                arc_total(segments),
                Err(RnetError::TooManyArcs { segments })
            );
        }
    }

    #[test]
    fn build_counts_and_degrees() {
        let (net, nodes, _) = star_network();
        assert_eq!(net.node_count(), 5);
        assert_eq!(net.segment_count(), 4);
        assert_eq!(net.degree(nodes[1]), 4);
        assert_eq!(net.degree(nodes[0]), 1);
    }

    #[test]
    fn adjacency_at_junction_matches_paper_operator() {
        let (net, nodes, segs) = star_network();
        // L_{n2}(s12) = {s23, s24, s25}
        let adj = net.adjacent_segments_at(segs[0], nodes[1]);
        assert_eq!(adj, vec![segs[1], segs[2], segs[3]]);
        // L_{n1}(s12) = ∅ (dead end)
        assert!(net.adjacent_segments_at(segs[0], nodes[0]).is_empty());
        // L(s12) = union of both.
        assert_eq!(net.adjacent_segments(segs[0]).len(), 3);
    }

    #[test]
    fn intersection_operator() {
        let (net, nodes, segs) = star_network();
        assert_eq!(net.intersection_of(segs[0], segs[1]), Some(nodes[1]));
        assert_eq!(net.intersection_of(segs[1], segs[3]), Some(nodes[1]));
        // Non-adjacent pair: none. (All pairs share n2 here, so build a
        // two-component case instead.)
        let mut b = RoadNetworkBuilder::new();
        let a0 = b.add_node(Point::new(0.0, 0.0));
        let a1 = b.add_node(Point::new(1.0, 0.0));
        let a2 = b.add_node(Point::new(5.0, 5.0));
        let a3 = b.add_node(Point::new(6.0, 5.0));
        let s0 = b.add_segment(a0, a1, 10.0).unwrap();
        let s1 = b.add_segment(a2, a3, 10.0).unwrap();
        let net2 = b.build().unwrap();
        assert_eq!(net2.intersection_of(s0, s1), None);
    }

    #[test]
    fn self_loop_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let n = b.add_node(Point::new(0.0, 0.0));
        assert_eq!(b.add_segment(n, n, 10.0), Err(RnetError::SelfLoop(n)));
    }

    #[test]
    fn short_length_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let err = b.add_segment_detailed(a, c, 50.0, 10.0, false).unwrap_err();
        assert!(matches!(err, RnetError::LengthShorterThanChord { .. }));
    }

    #[test]
    fn longer_than_chord_accepted() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        // A curved road 120 m long between junctions 100 m apart.
        let s = b.add_segment_detailed(a, c, 120.0, 10.0, false).unwrap();
        let net = b.build().unwrap();
        assert_eq!(net.segment(s).unwrap().length, 120.0);
    }

    #[test]
    fn non_finite_segment_values_rejected() {
        for v in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            let mut b = RoadNetworkBuilder::new();
            let a = b.add_node(Point::new(0.0, 0.0));
            let c = b.add_node(Point::new(100.0, 0.0));
            let far = b.add_node(Point::new(v, 0.0));
            for (from, to, length, speed) in
                [(a, c, v, 10.0), (a, c, 100.0, v), (a, far, 100.0, 10.0)]
            {
                let err = b
                    .add_segment_detailed(from, to, length, speed, false)
                    .unwrap_err();
                assert!(
                    matches!(err, RnetError::NonFiniteSegment { .. }),
                    "{v}: {err}"
                );
            }
            assert_eq!(b.segment_count(), 0, "{v}: nothing was added");
        }
    }

    #[test]
    fn non_positive_speed_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        assert!(matches!(
            b.add_segment(a, c, 0.0),
            Err(RnetError::NonPositiveSpeed(_))
        ));
    }

    #[test]
    fn unknown_node_rejected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let ghost = NodeId::new(99);
        assert_eq!(
            b.add_segment(a, ghost, 10.0),
            Err(RnetError::UnknownNode(ghost))
        );
    }

    #[test]
    fn route_detection() {
        let mut b = RoadNetworkBuilder::new();
        let n: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        let spur = b.add_node(Point::new(100.0, 100.0));
        let s01 = b.add_segment(n[0], n[1], 10.0).unwrap();
        let s12 = b.add_segment(n[1], n[2], 10.0).unwrap();
        let s23 = b.add_segment(n[2], n[3], 10.0).unwrap();
        let s1s = b.add_segment(n[1], spur, 10.0).unwrap();
        let net = b.build().unwrap();
        assert!(net.is_route(&[s01, s12, s23]));
        assert!(net.is_route(&[s01]));
        assert!(net.is_route(&[]));
        // s01 then s23 skips a segment: not a route.
        assert!(!net.is_route(&[s01, s23]));
        // s01 → s1s is a valid turn at n1.
        assert!(net.is_route(&[s01, s1s]));
        // Entering n1 via s01 and "continuing" via s01 again is not a route.
        assert!(!net.is_route(&[s01, s01, s12]));
        // Pivot: s12 then s1s enters n1 twice — s01→s12 then back out s1s
        // would pivot on n1 after traversing to n2; s01, s12, s1s is invalid
        // because s1s does not touch n2.
        assert!(!net.is_route(&[s01, s12, s1s]));
    }

    #[test]
    fn traversable_respects_oneway() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let s = b.add_segment_detailed(a, c, 100.0, 10.0, true).unwrap();
        let net = b.build().unwrap();
        let seg = net.segment(s).unwrap();
        assert!(seg.traversable_from(a));
        assert!(!seg.traversable_from(c));
        assert_eq!(seg.travel_time(), 10.0);
    }

    #[test]
    fn stats_match_hand_computation() {
        let (net, _, _) = star_network();
        let st = net.stats();
        assert_eq!(st.junctions, 5);
        assert_eq!(st.segments, 4);
        // Degrees: n2 has 4, leaves have 1 → avg = 8/5.
        assert!((st.avg_degree - 8.0 / 5.0).abs() < 1e-12);
        assert_eq!(st.max_degree, 4);
        let expected_total = (100.0 + 100.0f64.hypot(50.0) + 100.0 + 100.0f64.hypot(50.0)) / 1000.0;
        assert!((st.total_length_km - expected_total).abs() < 1e-9);
    }

    #[test]
    fn connectivity_check() {
        let (net, _, _) = star_network();
        assert!(net.is_connected());
        let mut b = RoadNetworkBuilder::new();
        b.add_node(Point::new(0.0, 0.0));
        b.add_node(Point::new(10.0, 0.0));
        let net2 = b.build().unwrap();
        assert!(!net2.is_connected());
    }

    #[test]
    fn bbox_and_empty_network() {
        let (net, _, _) = star_network();
        let bb = net.bbox().unwrap();
        assert_eq!(bb.min, Point::new(-100.0, -50.0));
        assert_eq!(bb.max, Point::new(100.0, 50.0));
        let empty = RoadNetworkBuilder::new().build().unwrap();
        assert_eq!(empty.bbox(), Err(RnetError::EmptyNetwork));
        assert!(empty.is_connected());
    }

    #[test]
    fn clip_keeps_interior_segments() {
        // 1x3 chain at y=0, x = 0,100,200,300; clip to x in [50, 250].
        let mut b = RoadNetworkBuilder::new();
        let n: Vec<NodeId> = (0..4)
            .map(|i| b.add_node(Point::new(i as f64 * 100.0, 0.0)))
            .collect();
        for w in n.windows(2) {
            b.add_segment(w[0], w[1], 10.0).unwrap();
        }
        let net = b.build().unwrap();
        let (clipped, map) = net.clip(Bbox {
            min: Point::new(50.0, -10.0),
            max: Point::new(250.0, 10.0),
        });
        // Nodes at x=100 and x=200 survive; only the middle segment does.
        assert_eq!(clipped.node_count(), 2);
        assert_eq!(clipped.segment_count(), 1);
        assert_eq!(map, vec![SegmentId::new(1)]);
        // Properties carried over.
        let seg = clipped.segments().next().unwrap();
        assert_eq!(seg.length, 100.0);
        assert_eq!(seg.speed_limit, 10.0);
    }

    #[test]
    fn clip_of_everything_is_identity_shaped() {
        let (net, _, _) = star_network();
        let bb = net.bbox().unwrap();
        let (clipped, map) = net.clip(bb);
        assert_eq!(clipped.node_count(), net.node_count());
        assert_eq!(clipped.segment_count(), net.segment_count());
        assert_eq!(map.len(), net.segment_count());
    }

    #[test]
    fn clip_of_nothing_is_empty() {
        let (net, _, _) = star_network();
        let (clipped, map) = net.clip(Bbox {
            min: Point::new(9000.0, 9000.0),
            max: Point::new(9100.0, 9100.0),
        });
        assert_eq!(clipped.node_count(), 0);
        assert!(map.is_empty());
    }

    #[test]
    fn other_endpoint_both_directions() {
        let (net, nodes, segs) = star_network();
        let s = net.segment(segs[0]).unwrap();
        assert_eq!(s.other_endpoint(nodes[0]), nodes[1]);
        assert_eq!(s.other_endpoint(nodes[1]), nodes[0]);
    }

    #[test]
    #[should_panic]
    fn other_endpoint_panics_for_foreign_node() {
        let (net, nodes, segs) = star_network();
        let s = net.segment(segs[0]).unwrap();
        let _ = s.other_endpoint(nodes[4]);
    }
}
