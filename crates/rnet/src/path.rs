//! Shortest paths over the road network.
//!
//! NEAT needs network distances in three places: the mobility simulator
//! routes objects along shortest paths, Phase 1 repairs gaps between
//! non-contiguous map-matched samples, and Phase 3 measures the modified
//! Hausdorff distance between flow-cluster endpoints (`d_N(a, b)` in
//! Definition 11 — the paper treats the graph as undirected there).
//!
//! [`ShortestPathEngine`] answers every query shape — point-to-point
//! distance, route, fastest route, one-to-all and bounded one-to-many —
//! with one search loop: Dijkstra, or A* with the admissible Euclidean
//! heuristic (segment lengths are never shorter than their chords). The
//! loop runs over reusable scratch buffers so repeated queries on large
//! networks (Miami-Dade has >100 k junctions) do not reallocate.

use crate::geometry::Point;
use crate::graph::RoadNetwork;
use crate::ids::{NodeId, SegmentId};
use neat_runctl::{Control, Interrupt};
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// Whether one-way restrictions are honoured during the search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TravelMode {
    /// Respect `Segment::oneway` (used for routing vehicles).
    Directed,
    /// Ignore direction (used for Phase-3 proximity, as in the paper).
    Undirected,
}

/// What a path's cost measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CostModel {
    /// Metres travelled (the paper's `d_N`).
    Distance,
    /// Seconds at the speed limit — lets the simulator route objects the
    /// way drivers do (fastest rather than shortest path).
    TravelTime,
}

impl CostModel {
    fn segment_cost(self, seg: &crate::graph::Segment) -> f64 {
        match self {
            CostModel::Distance => seg.length,
            CostModel::TravelTime => seg.travel_time(),
        }
    }
}

/// A shortest path: the junction chain, the segments travelled and the
/// total length in metres.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Route {
    /// Junctions visited, from source to target (inclusive).
    pub nodes: Vec<NodeId>,
    /// Segments traversed; `segments.len() == nodes.len() - 1`.
    pub segments: Vec<SegmentId>,
    /// Total length in metres.
    pub length: f64,
}

impl Route {
    /// A zero-length route standing at `node`.
    pub fn trivial(node: NodeId) -> Self {
        Route {
            nodes: vec![node],
            segments: Vec::new(),
            length: 0.0,
        }
    }

    /// Number of segments in the route.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }
}

#[derive(Debug, Clone, Copy, PartialEq)]
struct HeapEntry {
    priority: f64,
    dist: f64,
    node: u32,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Min-heap on priority; tie-break on node id for determinism.
        other
            .priority
            .total_cmp(&self.priority)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Reusable shortest-path solver.
///
/// The engine owns scratch arrays sized to one network; it is cheap to keep
/// one per thread and issue many queries. Every query runs the same search
/// loop and takes an optional [`Control`]: each node settlement is charged
/// against it, and the first interrupt abandons the search. Without a
/// control a query never fails.
///
/// ```
/// use neat_rnet::{Point, RoadNetworkBuilder, ShortestPathEngine};
/// use neat_rnet::path::TravelMode;
///
/// # fn main() -> Result<(), neat_rnet::RnetError> {
/// let mut b = RoadNetworkBuilder::new();
/// let n0 = b.add_node(Point::new(0.0, 0.0));
/// let n1 = b.add_node(Point::new(100.0, 0.0));
/// let n2 = b.add_node(Point::new(200.0, 0.0));
/// b.add_segment(n0, n1, 13.9)?;
/// b.add_segment(n1, n2, 13.9)?;
/// let net = b.build()?;
/// let mut sp = ShortestPathEngine::new(&net);
/// let d = sp.distance(&net, n0, n2, TravelMode::Undirected, f64::INFINITY, None);
/// assert_eq!(d, Ok(Some(200.0)));
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct ShortestPathEngine {
    /// Fastest speed limit in the network (admissible time heuristic).
    max_speed: f64,
    dist: Vec<f64>,
    prev_node: Vec<u32>,
    prev_seg: Vec<u32>,
    stamp: Vec<u32>,
    generation: u32,
    heap: BinaryHeap<HeapEntry>,
}

const NO_PREV: u32 = u32::MAX;

impl ShortestPathEngine {
    /// Creates an engine sized for `net`.
    pub fn new(net: &RoadNetwork) -> Self {
        let n = net.node_count();
        let max_speed = net
            .segments()
            .map(|s| s.speed_limit)
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE);
        ShortestPathEngine {
            max_speed,
            dist: vec![f64::INFINITY; n],
            prev_node: vec![NO_PREV; n],
            prev_seg: vec![NO_PREV; n],
            stamp: vec![0; n],
            generation: 0,
            heap: BinaryHeap::new(),
        }
    }

    fn begin(&mut self, net: &RoadNetwork) {
        assert_eq!(
            self.stamp.len(),
            net.node_count(),
            "engine was built for a different network"
        );
        self.generation = self.generation.wrapping_add(1);
        if self.generation == 0 {
            // Stamp wrapped: clear everything once.
            self.stamp.fill(0);
            self.generation = 1;
        }
        self.heap.clear();
    }

    fn touch(&mut self, node: usize) {
        if self.stamp[node] != self.generation {
            self.stamp[node] = self.generation;
            self.dist[node] = f64::INFINITY;
            self.prev_node[node] = NO_PREV;
            self.prev_seg[node] = NO_PREV;
        }
    }

    /// Network distance `d_N(from, to)` in metres by A* with the
    /// Euclidean heuristic, which is admissible because every segment's
    /// length is at least its chord. `Ok(None)` when `to` is unreachable
    /// or farther than `bound`; pass `f64::INFINITY` for no bound.
    ///
    /// Phase 3 of NEAT only needs to know whether `d_N ≤ ε`; bounding the
    /// search keeps the ε-neighbourhood queries cheap.
    ///
    /// # Errors
    ///
    /// Returns the latched [`Interrupt`] when `ctl` stops the search;
    /// never fails without a control.
    pub fn distance(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        mode: TravelMode,
        bound: f64,
        ctl: Option<&Control>,
    ) -> Result<Option<f64>, Interrupt> {
        let goal = Some(net.position(to));
        self.search_to(net, from, to, mode, CostModel::Distance, goal, bound, ctl)
    }

    /// Undirected network distance computed with plain Dijkstra network
    /// expansion (no heuristic, no bound) — the paper's baseline for the
    /// Phase-3 ablation (`opt-NEAT-Dijkstra`, Figure 7).
    ///
    /// # Errors
    ///
    /// Same contract as [`ShortestPathEngine::distance`].
    pub fn distance_plain(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        ctl: Option<&Control>,
    ) -> Result<Option<f64>, Interrupt> {
        let (mode, cost) = (TravelMode::Undirected, CostModel::Distance);
        self.search_to(net, from, to, mode, cost, None, f64::INFINITY, ctl)
    }

    /// Full shortest route by A*, or `Ok(None)` if unreachable.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShortestPathEngine::distance`].
    pub fn route(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        mode: TravelMode,
        ctl: Option<&Control>,
    ) -> Result<Option<Route>, Interrupt> {
        let length = self.distance(net, from, to, mode, f64::INFINITY, ctl)?;
        Ok(length.map(|l| self.rebuild_route(from, to, l)))
    }

    /// Walks the predecessor arrays back from `to` after a successful
    /// search that reached it.
    fn rebuild_route(&self, from: NodeId, to: NodeId, length: f64) -> Route {
        let mut nodes = vec![to];
        let mut segments = Vec::new();
        let mut cur = to.index();
        while self.prev_node[cur] != NO_PREV {
            segments.push(SegmentId::new(self.prev_seg[cur] as usize));
            cur = self.prev_node[cur] as usize;
            nodes.push(NodeId::new(cur));
        }
        nodes.reverse();
        segments.reverse();
        debug_assert_eq!(nodes.first(), Some(&from));
        Route {
            nodes,
            segments,
            length,
        }
    }

    /// Fastest route by free-flow travel time, returning the route (with
    /// its length in metres) and the travel time in seconds — how the
    /// mobility simulator can route objects when drivers minimise time
    /// rather than distance.
    pub fn fastest_route(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        mode: TravelMode,
    ) -> Option<(Route, f64)> {
        let cost = CostModel::TravelTime;
        let goal = Some(net.position(to));
        // Without a control the search cannot be interrupted.
        let seconds = self
            .search_to(net, from, to, mode, cost, goal, f64::INFINITY, None)
            .ok()??;
        let timed = self.rebuild_route(from, to, 0.0);
        // Invariant: every id in `segments` was written into `prev_seg` by
        // the search itself from `net.incident_segments`, so the lookup in
        // the same network cannot fail on any input.
        let length = timed
            .segments
            .iter()
            .map(|&s| net.segment(s).expect("route segment exists").length) // lint:allow(L1) reason=route segments come from this network's own search
            .sum();
        Some((Route { length, ..timed }, seconds))
    }

    /// Single-source distances to every reachable node (plain Dijkstra, no
    /// heuristic, no target). Entries for unreachable nodes are
    /// `f64::INFINITY`. An interrupt abandons the expansion entirely
    /// rather than returning a partially settled (and therefore
    /// misleading) distance table.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShortestPathEngine::distance`].
    pub fn distances_from(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        mode: TravelMode,
        ctl: Option<&Control>,
    ) -> Result<Vec<f64>, Interrupt> {
        let cost = CostModel::Distance;
        self.expand(net, from, mode, cost, None, f64::INFINITY, ctl, |_, _| {
            ControlFlow::Continue(())
        })?;
        let mut out = vec![f64::INFINITY; net.node_count()];
        for (i, d) in out.iter_mut().enumerate() {
            if self.stamp[i] == self.generation {
                *d = self.dist[i];
            }
        }
        Ok(out)
    }

    /// Bounded one-to-many Dijkstra: exact distances from `from` to
    /// every node within `bound`, as a sparse table.
    ///
    /// One expansion answers *all* point queries `d(from, x) ≤ bound`
    /// exactly: with `targets: None`, a node absent from the table is
    /// strictly farther than `bound`. This replaces repeated
    /// point-to-point searches from a shared source (phase 3 asks for the
    /// distance from one representative-route endpoint to every candidate
    /// endpoint within ε) at the cost of a single ε-ball expansion.
    ///
    /// With `targets: Some(..)` the expansion additionally stops as soon
    /// as every target has been settled — often long before the
    /// `bound`-ball is exhausted. The truncated table still answers
    /// `d(from, x) ≤ bound` **exactly for every `x ∈ targets`**: either
    /// all targets settled (so each is present with its exact distance),
    /// or some target is farther than `bound` and the expansion ran the
    /// full ball (so absence proves `> bound`). For nodes *outside*
    /// `targets`, absence from a truncated table is inconclusive —
    /// callers must only query targets, or nodes independently proven
    /// farther than `bound`. Duplicate target entries are fine.
    ///
    /// # Errors
    ///
    /// Same contract as [`ShortestPathEngine::distance`]; an interrupt
    /// abandons the expansion rather than returning a partially settled
    /// table.
    pub fn distances_within(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        mode: TravelMode,
        bound: f64,
        targets: Option<&[NodeId]>,
        ctl: Option<&Control>,
    ) -> Result<NodeDistances, Interrupt> {
        // Sorted, deduplicated target indices for binary-search
        // membership tests; `remaining` counts how many are unsettled.
        let mut wanted: Vec<usize> = targets
            .map(|t| t.iter().map(|n| n.index()).collect())
            .unwrap_or_default();
        wanted.sort_unstable();
        wanted.dedup();
        let mut remaining = if targets.is_some() {
            wanted.len()
        } else {
            usize::MAX
        };
        if remaining == 0 {
            // Nothing will ever be looked up: every absent node is
            // already known (by the caller's own bound proof) to be
            // farther than `bound`.
            return Ok(NodeDistances::empty());
        }
        let mut pairs: Vec<(NodeId, f64)> = Vec::new();
        let cost = CostModel::Distance;
        self.expand(net, from, mode, cost, None, bound, ctl, |node, dist| {
            pairs.push((node, dist));
            if wanted.binary_search(&node.index()).is_ok() {
                remaining -= 1;
                if remaining == 0 {
                    return ControlFlow::Break(()); // every target is settled: the table is complete
                }
            }
            ControlFlow::Continue(())
        })?;
        pairs.sort_by_key(|(n, _)| n.index());
        Ok(NodeDistances { pairs })
    }

    /// Point-to-point search: the cost of the cheapest path to `to`, or
    /// `None` when it is unreachable or costs more than `bound`.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn search_to(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        to: NodeId,
        mode: TravelMode,
        cost: CostModel,
        goal: Option<Point>,
        bound: f64,
        ctl: Option<&Control>,
    ) -> Result<Option<f64>, Interrupt> {
        let mut found = None;
        self.expand(net, from, mode, cost, goal, bound, ctl, |node, dist| {
            if node == to {
                found = Some(dist);
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        })?;
        Ok(found)
    }

    /// The one search loop: Dijkstra from `from`, or A* towards `goal`
    /// with the straight-line heuristic when one is given.
    ///
    /// Each settlement is first charged to `ctl` (the first interrupt
    /// aborts the search), then the search ends once the settled cost
    /// exceeds `bound` (every remaining node is farther), then `visit`
    /// sees the node and its final cost, and only then are its edges
    /// relaxed.
    ///
    /// Always inlined, so each query compiles to its own loop with the
    /// visitor, cost model and heuristic fixed: the shared loop must cost
    /// the hot searches (phase-3 tables, gap repair) nothing over
    /// hand-written ones.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn expand(
        &mut self,
        net: &RoadNetwork,
        from: NodeId,
        mode: TravelMode,
        cost: CostModel,
        goal: Option<Point>,
        bound: f64,
        ctl: Option<&Control>,
        mut visit: impl FnMut(NodeId, f64) -> ControlFlow<()>,
    ) -> Result<(), Interrupt> {
        self.begin(net);
        // Heuristic stays admissible under both cost models: straight-line
        // metres, divided by the fastest speed limit for travel time.
        let h_scale = match cost {
            CostModel::Distance => 1.0,
            CostModel::TravelTime => 1.0 / self.max_speed,
        };
        let priority = |n: usize, d: f64| match goal {
            Some(g) => d + net.position(NodeId::new(n)).distance(g) * h_scale,
            None => d,
        };
        let src = from.index();
        self.touch(src);
        self.dist[src] = 0.0;
        self.heap.push(HeapEntry {
            priority: priority(src, 0.0),
            dist: 0.0,
            node: src as u32,
        });
        while let Some(HeapEntry { dist, node, .. }) = self.heap.pop() {
            let u = node as usize;
            if self.stamp[u] == self.generation && dist > self.dist[u] {
                continue; // stale entry
            }
            if let Some(c) = ctl {
                c.check_settled()?;
            }
            if dist > bound {
                break;
            }
            let un = NodeId::new(u);
            if visit(un, dist).is_break() {
                break;
            }
            for &sid in net.incident_segments(un) {
                // Invariant: `sid` comes from `net`'s own adjacency lists,
                // so the segment is always present in the same network.
                let seg = net.segment(sid).expect("incident segment exists"); // lint:allow(L1) reason=documented invariant above: sid is from this network's adjacency lists
                if mode == TravelMode::Directed && !seg.traversable_from(un) {
                    continue;
                }
                let v = seg.other_endpoint(un).index();
                let nd = dist + cost.segment_cost(seg);
                self.touch(v);
                if nd < self.dist[v] {
                    self.dist[v] = nd;
                    self.prev_node[v] = u as u32;
                    self.prev_seg[v] = sid.index() as u32; // lint:allow(L4) reason=SegmentId wraps u32, so index() round-trips losslessly
                    self.heap.push(HeapEntry {
                        priority: priority(v, nd),
                        dist: nd,
                        node: v as u32,
                    });
                }
            }
        }
        Ok(())
    }
}

/// Sparse distance table from one source node: the exact network
/// distance to every node inside the expansion bound, sorted by node id
/// for binary-search lookups.
///
/// Produced by [`ShortestPathEngine::distances_within`]; a node absent
/// from the table is strictly farther from the source than the bound
/// the table was built with (for a target-pruned table, this holds for
/// the targets only).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct NodeDistances {
    /// `(node, distance)` pairs sorted by node index.
    pairs: Vec<(NodeId, f64)>,
}

impl NodeDistances {
    /// A table with no entries (every lookup misses).
    pub fn empty() -> Self {
        NodeDistances { pairs: Vec::new() }
    }

    /// The exact distance to `node`, or `None` when `node` lies outside
    /// the bound the table was built with.
    pub fn get(&self, node: NodeId) -> Option<f64> {
        self.pairs
            .binary_search_by_key(&node.index(), |(n, _)| n.index())
            .ok()
            .map(|i| self.pairs[i].1)
    }

    /// Number of nodes inside the bound.
    pub fn len(&self) -> usize {
        self.pairs.len()
    }

    /// True when no node was within the bound.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }

    /// The sorted `(node, distance)` pairs.
    pub fn entries(&self) -> &[(NodeId, f64)] {
        &self.pairs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::RoadNetworkBuilder;

    /// Regression (neat-lint L3): a NaN priority must neither panic nor
    /// destroy the heap's total order. `total_cmp` sorts NaN after every
    /// finite priority, so poisoned entries drain last, deterministically.
    #[test]
    fn heap_entry_tolerates_nan_priorities() {
        let mut heap = std::collections::BinaryHeap::new();
        for (i, priority) in [3.0, f64::NAN, 1.0, 2.0, f64::NAN].into_iter().enumerate() {
            heap.push(HeapEntry {
                priority,
                dist: priority,
                node: i as u32,
            });
        }
        let order: Vec<u32> = std::iter::from_fn(|| heap.pop()).map(|e| e.node).collect();
        assert_eq!(order.len(), 5, "no entry lost to an inconsistent ordering");
        assert_eq!(&order[..3], &[2, 3, 0], "finite priorities pop in order");
        assert_eq!(&order[3..], &[1, 4], "NaN entries drain last, by node id");
    }

    /// 3×3 grid with unit spacing 100 m.
    fn grid3() -> (RoadNetwork, Vec<NodeId>) {
        let mut b = RoadNetworkBuilder::new();
        let mut ids = Vec::new();
        for r in 0..3 {
            for c in 0..3 {
                ids.push(b.add_node(Point::new(c as f64 * 100.0, r as f64 * 100.0)));
            }
        }
        for r in 0..3 {
            for c in 0..3 {
                let i = r * 3 + c;
                if c + 1 < 3 {
                    b.add_segment(ids[i], ids[i + 1], 13.9).unwrap();
                }
                if r + 1 < 3 {
                    b.add_segment(ids[i], ids[i + 3], 13.9).unwrap();
                }
            }
        }
        (b.build().unwrap(), ids)
    }

    /// Unbounded, uncontrolled undirected A* distance.
    fn dist(sp: &mut ShortestPathEngine, net: &RoadNetwork, a: NodeId, b: NodeId) -> Option<f64> {
        sp.distance(net, a, b, TravelMode::Undirected, f64::INFINITY, None)
            .unwrap()
    }

    #[test]
    fn distances_within_charges_settlements_and_aborts() {
        use neat_runctl::{CancelToken, RunBudget};
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let ctl = Control::unlimited();
        let t = sp
            .distances_within(&net, ids[0], TravelMode::Undirected, 1e9, None, Some(&ctl))
            .unwrap();
        assert_eq!(t.len(), 9, "whole grid within a huge bound");
        assert_eq!(ctl.settled(), 9, "one settlement charged per node");
        let tight = Control::new(
            RunBudget::unlimited().with_max_settled_nodes(3),
            CancelToken::new(),
        );
        let r = sp.distances_within(
            &net,
            ids[0],
            TravelMode::Undirected,
            1e9,
            None,
            Some(&tight),
        );
        assert!(r.is_err(), "budget aborts the expansion");
    }

    #[test]
    fn distance_on_grid() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        // Corner to corner: 4 hops of 100 m.
        assert_eq!(dist(&mut sp, &net, ids[0], ids[8]), Some(400.0));
        // Self distance is zero.
        assert_eq!(dist(&mut sp, &net, ids[4], ids[4]), Some(0.0));
    }

    #[test]
    fn route_reconstruction() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let r = sp
            .route(&net, ids[0], ids[8], TravelMode::Undirected, None)
            .unwrap()
            .unwrap();
        assert_eq!(r.length, 400.0);
        assert_eq!(r.nodes.len(), 5);
        assert_eq!(r.segments.len(), 4);
        assert_eq!(r.nodes[0], ids[0]);
        assert_eq!(*r.nodes.last().unwrap(), ids[8]);
        assert!(net.is_route(&r.segments));
        // Consecutive nodes joined by the listed segment.
        for (w, &sid) in r.nodes.windows(2).zip(&r.segments) {
            let seg = net.segment(sid).unwrap();
            assert!(seg.has_endpoint(w[0]) && seg.has_endpoint(w[1]));
        }
    }

    #[test]
    fn oneway_blocks_directed_but_not_undirected() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        b.add_segment_detailed(a, c, 100.0, 10.0, true).unwrap();
        let net = b.build().unwrap();
        let mut sp = ShortestPathEngine::new(&net);
        let inf = f64::INFINITY;
        assert_eq!(
            sp.distance(&net, a, c, TravelMode::Directed, inf, None),
            Ok(Some(100.0))
        );
        assert_eq!(
            sp.distance(&net, c, a, TravelMode::Directed, inf, None),
            Ok(None)
        );
        assert_eq!(dist(&mut sp, &net, c, a), Some(100.0));
    }

    #[test]
    fn bounded_search_gives_up() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        assert_eq!(
            sp.distance(&net, ids[0], ids[8], TravelMode::Undirected, 200.0, None),
            Ok(None)
        );
        assert_eq!(
            sp.distance(&net, ids[0], ids[8], TravelMode::Undirected, 400.0, None),
            Ok(Some(400.0))
        );
    }

    #[test]
    fn unreachable_returns_none() {
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let c = b.add_node(Point::new(100.0, 0.0));
        let net = b.build().unwrap();
        let mut sp = ShortestPathEngine::new(&net);
        assert_eq!(dist(&mut sp, &net, a, c), None);
        assert_eq!(sp.route(&net, a, c, TravelMode::Undirected, None), Ok(None));
    }

    #[test]
    fn distances_from_all_nodes() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let d = sp
            .distances_from(&net, ids[0], TravelMode::Undirected, None)
            .unwrap();
        assert_eq!(d[ids[0].index()], 0.0);
        assert_eq!(d[ids[4].index()], 200.0);
        assert_eq!(d[ids[8].index()], 400.0);
    }

    #[test]
    fn engine_reuse_across_queries_is_consistent() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        for _ in 0..100 {
            assert_eq!(dist(&mut sp, &net, ids[0], ids[8]), Some(400.0));
            assert_eq!(dist(&mut sp, &net, ids[3], ids[5]), Some(200.0));
        }
    }

    #[test]
    fn euclidean_lower_bound_holds_on_grid() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        for &a in &ids {
            for &b in &ids {
                let dn = dist(&mut sp, &net, a, b).unwrap();
                let de = net.euclidean_distance(a, b);
                assert!(
                    de <= dn + 1e-9,
                    "ELB violated: dE={de} > dN={dn} for {a}->{b}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "different network")]
    fn engine_rejects_mismatched_network() {
        let (net, _) = grid3();
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let small = b.build().unwrap();
        let mut sp = ShortestPathEngine::new(&small);
        let _ = dist(&mut sp, &net, a, a);
    }

    #[test]
    fn fastest_route_prefers_highway_over_short_slow_road() {
        // Two ways from a to d: direct slow road (300 m at 5 m/s = 60 s)
        // vs a detour on a fast road (400 m at 25 m/s = 16 s).
        let mut b = RoadNetworkBuilder::new();
        let a = b.add_node(Point::new(0.0, 0.0));
        let d = b.add_node(Point::new(300.0, 0.0));
        let m = b.add_node(Point::new(150.0, 130.0));
        b.add_segment_detailed(a, d, 300.0, 5.0, false).unwrap(); // slow direct
        b.add_segment(a, m, 25.0).unwrap(); // ~198 m highway legs
        b.add_segment(m, d, 25.0).unwrap();
        let net = b.build().unwrap();
        let mut sp = ShortestPathEngine::new(&net);
        // Shortest by distance: the direct road.
        let short = sp
            .route(&net, a, d, TravelMode::Undirected, None)
            .unwrap()
            .unwrap();
        assert_eq!(short.segments.len(), 1);
        // Fastest by time: the highway detour.
        let (fast, seconds) = sp
            .fastest_route(&net, a, d, TravelMode::Undirected)
            .unwrap();
        assert_eq!(fast.segments.len(), 2);
        assert!(fast.length > short.length);
        assert!(seconds < 300.0 / 5.0);
        // Route length is in metres even under the time cost model.
        let sum: f64 = fast
            .segments
            .iter()
            .map(|&s| net.segment(s).unwrap().length)
            .sum();
        assert!((fast.length - sum).abs() < 1e-9);
    }

    #[test]
    fn fastest_route_matches_shortest_on_uniform_speeds() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let short = sp
            .route(&net, ids[0], ids[8], TravelMode::Undirected, None)
            .unwrap()
            .unwrap();
        let (fast, _) = sp
            .fastest_route(&net, ids[0], ids[8], TravelMode::Undirected)
            .unwrap();
        assert_eq!(fast.length, short.length);
    }

    #[test]
    fn trivial_route() {
        let r = Route::trivial(NodeId::new(3));
        assert_eq!(r.length, 0.0);
        assert_eq!(r.segment_count(), 0);
        assert_eq!(r.nodes, vec![NodeId::new(3)]);
    }

    #[test]
    fn unlimited_control_matches_uncontrolled_search() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let ctl = Control::unlimited();
        let un = TravelMode::Undirected;
        assert_eq!(
            sp.distance_plain(&net, ids[0], ids[8], Some(&ctl)),
            Ok(Some(400.0))
        );
        assert_eq!(
            sp.distance(&net, ids[0], ids[8], un, 200.0, Some(&ctl)),
            Ok(None)
        );
        assert_eq!(
            sp.route(&net, ids[0], ids[8], un, Some(&ctl)),
            sp.route(&net, ids[0], ids[8], un, None)
        );
        assert_eq!(
            sp.distances_from(&net, ids[0], un, Some(&ctl)),
            sp.distances_from(&net, ids[0], un, None)
        );
        assert!(ctl.settled() > 0, "settlements are charged to the control");
    }

    /// The loop charges a settlement before its bound test: a search that
    /// gives up at the bound still pays for the node that crossed it.
    #[test]
    fn settlement_past_the_bound_is_charged() {
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let ctl = Control::unlimited();
        let table = sp
            .distances_within(
                &net,
                ids[0],
                TravelMode::Undirected,
                100.0,
                None,
                Some(&ctl),
            )
            .unwrap();
        // Nodes at 0, 100, 100 are inside; the first node at 200 is
        // charged and ends the expansion.
        assert_eq!(table.len(), 3);
        assert_eq!(ctl.settled(), 4);
    }

    #[test]
    fn settled_node_budget_interrupts_search() {
        use neat_runctl::{CancelToken, Interrupt, RunBudget};
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let ctl = Control::new(
            RunBudget::unlimited().with_max_settled_nodes(2),
            CancelToken::new(),
        );
        let un = TravelMode::Undirected;
        assert_eq!(
            sp.distance(&net, ids[0], ids[8], un, f64::INFINITY, Some(&ctl)),
            Err(Interrupt::SettledNodeBudgetExhausted)
        );
        // The interrupt is latched: a fresh query through the same control
        // fails immediately…
        assert!(sp.distances_from(&net, ids[0], un, Some(&ctl)).is_err());
        // …but the engine itself stays healthy for uncontrolled queries.
        assert_eq!(dist(&mut sp, &net, ids[0], ids[8]), Some(400.0));
    }

    #[test]
    fn cancelled_token_interrupts_route() {
        use neat_runctl::{CancelToken, Interrupt, RunBudget};
        let (net, ids) = grid3();
        let mut sp = ShortestPathEngine::new(&net);
        let token = CancelToken::new();
        token.cancel();
        let ctl = Control::new(RunBudget::unlimited(), token);
        assert_eq!(
            sp.route(&net, ids[0], ids[8], TravelMode::Undirected, Some(&ctl)),
            Err(Interrupt::Cancelled)
        );
    }
}
