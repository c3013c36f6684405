//! The NEAT data model: base clusters, flow clusters and trajectory
//! clusters (Definitions 2–8 of the paper).

use crate::error::NeatError;
use neat_rnet::{NodeId, RoadNetwork, SegmentId};
use neat_traj::{TFragment, TrajectoryId};
use serde::{Deserialize, Serialize};
use std::fmt;

/// A base cluster (Definition 2): all t-fragments of a trajectory set that
/// lie on one road segment, which is the cluster's *representative* `e_S`.
///
/// The participating-trajectory set `P_Tr(S)` is computed once at
/// construction and stored as an ascending, duplicate-free slice, so a
/// netflow is one merge walk over two such slices.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct BaseCluster {
    segment: SegmentId,
    fragments: Vec<TFragment>,
    /// Cached participating-trajectory set `P_Tr(S)` (Definition 3),
    /// ascending and duplicate-free.
    trajectories: Box<[TrajectoryId]>,
}

impl BaseCluster {
    /// Creates a base cluster from fragments that all lie on `segment`.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::SegmentMismatch`] if any fragment lies on a
    /// different segment.
    pub fn new(segment: SegmentId, fragments: Vec<TFragment>) -> Result<Self, NeatError> {
        for f in &fragments {
            if f.segment != segment {
                return Err(NeatError::SegmentMismatch {
                    expected: segment,
                    got: f.segment,
                });
            }
        }
        Ok(Self::from_grouped(segment, fragments))
    }

    /// Like [`BaseCluster::new`] for fragments already grouped by
    /// `segment` (phase 1's counting scatter guarantees it), skipping
    /// the per-fragment re-validation pass.
    pub(crate) fn from_grouped(segment: SegmentId, fragments: Vec<TFragment>) -> Self {
        debug_assert!(fragments.iter().all(|f| f.segment == segment));
        let trajectories = sorted_ids(fragments.iter().map(|f| f.trajectory).collect());
        BaseCluster {
            segment,
            fragments,
            trajectories,
        }
    }

    /// Takes the cluster apart into its segment and fragments.
    pub(crate) fn into_parts(self) -> (SegmentId, Vec<TFragment>) {
        (self.segment, self.fragments)
    }

    /// The representative road segment `e_S`.
    pub fn segment(&self) -> SegmentId {
        self.segment
    }

    /// The member t-fragments.
    pub fn fragments(&self) -> &[TFragment] {
        &self.fragments
    }

    /// Cluster density `d(S)` (Definition 4): the number of t-fragments.
    pub fn density(&self) -> usize {
        self.fragments.len()
    }

    /// The participating trajectories `P_Tr(S)` (Definition 3), in
    /// ascending id order with no duplicates.
    pub fn participating_trajectories(&self) -> &[TrajectoryId] {
        &self.trajectories
    }

    /// Trajectory cardinality `|P_Tr(S)|` (Definition 3).
    pub fn trajectory_cardinality(&self) -> usize {
        self.trajectories.len()
    }

    /// Netflow `f(Si, Sj)` (Definition 5): the number of trajectories
    /// participating in both clusters.
    pub fn netflow(&self, other: &BaseCluster) -> usize {
        intersection_size(&self.trajectories, &other.trajectories)
    }
}

/// Debug-formats a set slice in set notation (`{a, b}`). Recorded output
/// fingerprints hash the clusters' `Debug` text, so the sets keep the
/// notation of a set.
struct AsSet<'a>(&'a [TrajectoryId]);

impl fmt::Debug for AsSet<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_set().entries(self.0).finish()
    }
}

impl fmt::Debug for BaseCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaseCluster")
            .field("segment", &self.segment)
            .field("fragments", &self.fragments)
            .field("trajectories", &AsSet(&self.trajectories))
            .finish()
    }
}

impl fmt::Debug for FlowCluster {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FlowCluster")
            .field("members", &self.members)
            .field("nodes", &self.nodes)
            .field("trajectories", &AsSet(&self.trajectories))
            .finish()
    }
}

/// Size ratio from which [`intersection_size`] binary-searches the
/// larger slice instead of walking both.
const SEARCH_RATIO: usize = 16;

/// Sorts and deduplicates a list of trajectory ids into a set slice.
/// Phase 1's scatter keeps dataset order inside a segment, so the list is
/// often ascending already and the sort is skipped.
pub(crate) fn sorted_ids(mut ids: Vec<TrajectoryId>) -> Box<[TrajectoryId]> {
    if !ids.is_sorted() {
        ids.sort_unstable();
    }
    ids.dedup();
    debug_assert!(is_set(&ids));
    ids.into_boxed_slice()
}

/// Whether `ids` is a set slice: strictly ascending.
fn is_set(ids: &[TrajectoryId]) -> bool {
    ids.windows(2).all(|w| w[0] < w[1])
}

/// Size of the intersection of two ascending, duplicate-free id slices.
///
/// A linear merge walk over both slices, or — when one side is at least
/// [`SEARCH_RATIO`] times the other — a binary search of what is left of
/// the larger side for each id of the smaller one.
pub(crate) fn intersection_size(a: &[TrajectoryId], b: &[TrajectoryId]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return 0;
    }
    let mut n = 0;
    if large.len() / small.len() >= SEARCH_RATIO {
        let mut rest = large;
        for &x in small {
            let at = rest.partition_point(|&y| y < x);
            n += usize::from(rest.get(at) == Some(&x));
            rest = &rest[at..];
        }
        return n;
    }
    let (mut i, mut j) = (0, 0);
    while i < small.len() && j < large.len() {
        let (x, y) = (small[i], large[j]);
        n += usize::from(x == y);
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    n
}

/// Merges the set slice `add` into the set `acc` in place, keeping `acc`
/// ascending and duplicate-free. The merge runs back to front inside
/// `acc`'s own buffer, so a flow's union grows without a second buffer.
fn union_into(acc: &mut Vec<TrajectoryId>, add: &[TrajectoryId]) {
    let old = acc.len();
    acc.extend_from_slice(add);
    // `k` is the write cursor; `k >= i + j` always holds, so a write never
    // lands on an unread id of `acc[..i]`.
    let (mut i, mut j, mut k) = (old, add.len(), acc.len());
    while i > 0 && j > 0 {
        let (x, y) = (acc[i - 1], add[j - 1]);
        k -= 1;
        if x > y {
            acc[k] = x;
            i -= 1;
        } else {
            acc[k] = y;
            j -= 1;
            i -= usize::from(x == y);
        }
    }
    while j > 0 {
        j -= 1;
        k -= 1;
        acc[k] = add[j];
    }
    // `acc[..i]` is in place; `acc[k..]` follows it after a gap of one
    // slot per duplicate.
    if k > i {
        let total = acc.len();
        acc.copy_within(k.., i);
        acc.truncate(total - (k - i));
    }
    debug_assert!(is_set(acc));
}

/// A flow cluster (Definition 8): an ordered list of base clusters whose
/// representative segments form a route in the road network.
///
/// The junction chain is maintained alongside the members, so the flow's
/// two open endpoints — needed by the Phase-3 distance — are always
/// available in O(1). So is the union of the members' participating
/// trajectories, kept ascending and duplicate-free: each merge folds the
/// new member's set into it with one sorted merge.
#[derive(Clone, PartialEq, Serialize, Deserialize)]
pub struct FlowCluster {
    members: Vec<BaseCluster>,
    /// Junction chain of the representative route; `nodes.len() ==
    /// members.len() + 1`. `nodes[i]` and `nodes[i+1]` are the endpoints of
    /// `members[i].segment()`.
    nodes: Vec<NodeId>,
    /// `P_Tr(F)`, ascending and duplicate-free.
    trajectories: Vec<TrajectoryId>,
}

impl FlowCluster {
    /// Creates a flow cluster containing a single base cluster. The node
    /// chain is seeded with the segment's `(a, b)` endpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::UnknownSegment`] if the base cluster's segment
    /// is not part of `net`.
    pub fn from_base(net: &RoadNetwork, base: BaseCluster) -> Result<Self, NeatError> {
        let seg = net
            .segment(base.segment())
            .map_err(|_| NeatError::UnknownSegment(base.segment()))?;
        let nodes = vec![seg.a, seg.b];
        let trajectories = base.trajectories.to_vec();
        Ok(FlowCluster {
            members: vec![base],
            nodes,
            trajectories,
        })
    }

    /// Reassembles a flow cluster from checkpoint-decoded or expiry-pruned
    /// parts. The participating-trajectory union is recomputed once (the
    /// members' slices concatenated, then sorted and deduplicated); the
    /// caller has already validated the node chain against the road
    /// network. Returns `None` when the chain length does not match the
    /// member count or there are no members.
    pub(crate) fn from_parts(members: Vec<BaseCluster>, nodes: Vec<NodeId>) -> Option<Self> {
        if members.is_empty() || nodes.len() != members.len() + 1 {
            return None;
        }
        let trajectories = sorted_ids(
            members
                .iter()
                .flat_map(|m| m.trajectories.iter().copied())
                .collect(),
        )
        .into_vec();
        Some(FlowCluster {
            members,
            nodes,
            trajectories,
        })
    }

    /// Takes the flow apart into its members and junction chain.
    pub(crate) fn into_parts(self) -> (Vec<BaseCluster>, Vec<NodeId>) {
        (self.members, self.nodes)
    }

    /// Member base clusters in route order.
    pub fn members(&self) -> &[BaseCluster] {
        &self.members
    }

    /// The representative route `r_F` as a segment sequence.
    pub fn route(&self) -> Vec<SegmentId> {
        self.members.iter().map(BaseCluster::segment).collect()
    }

    /// The junction chain of the representative route (one node more than
    /// there are members).
    pub fn node_chain(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The two open endpoints of the representative route —
    /// `{a1, a2}` in Definition 11.
    pub fn endpoints(&self) -> (NodeId, NodeId) {
        (
            *self.nodes.first().expect("flow has at least one member"), // lint:allow(L1) reason=FlowCluster construction guarantees at least one member node
            *self.nodes.last().expect("flow has at least one member"),
        )
    }

    /// Open endpoint at the back of the route (extension point for
    /// appending).
    pub fn back_endpoint(&self) -> NodeId {
        *self.nodes.last().expect("non-empty") // lint:allow(L1) reason=FlowCluster nodes are non-empty by construction
    }

    /// Open endpoint at the front of the route (extension point for
    /// prepending).
    pub fn front_endpoint(&self) -> NodeId {
        *self.nodes.first().expect("non-empty") // lint:allow(L1) reason=FlowCluster nodes are non-empty by construction
    }

    /// Total length of the representative route in metres.
    pub fn route_length(&self, net: &RoadNetwork) -> f64 {
        self.members
            .iter()
            .map(|m| {
                net.segment(m.segment())
                    .map(|s| s.length)
                    .unwrap_or_default()
            })
            .sum()
    }

    /// Participating trajectories `P_Tr(F)` — the union over members — in
    /// ascending id order with no duplicates.
    pub fn participating_trajectories(&self) -> &[TrajectoryId] {
        &self.trajectories
    }

    /// Trajectory cardinality `|P_Tr(F)|`.
    pub fn trajectory_cardinality(&self) -> usize {
        self.trajectories.len()
    }

    /// Total t-fragment count over all members.
    pub fn density(&self) -> usize {
        self.members.iter().map(BaseCluster::density).sum()
    }

    /// Netflow between this flow cluster and a base cluster,
    /// `f(F, S) = |P_Tr(F) ∩ P_Tr(S)|` (Section II-B).
    pub fn netflow_with(&self, base: &BaseCluster) -> usize {
        intersection_size(&self.trajectories, &base.trajectories)
    }

    /// Appends `base` at the back of the route. Its segment must be
    /// incident to [`FlowCluster::back_endpoint`].
    ///
    /// # Errors
    ///
    /// Returns [`NeatError::NotAdjacent`] when the candidate segment does
    /// not touch the back endpoint, or [`NeatError::UnknownSegment`] when
    /// it is not part of `net`.
    pub fn push_back(&mut self, net: &RoadNetwork, base: BaseCluster) -> Result<(), NeatError> {
        let seg = net
            .segment(base.segment())
            .map_err(|_| NeatError::UnknownSegment(base.segment()))?;
        let join = self.back_endpoint();
        if !seg.has_endpoint(join) {
            return Err(NeatError::NotAdjacent {
                end: self.members.last().expect("non-empty").segment(), // lint:allow(L1) reason=members is non-empty whenever an extension is attempted
                candidate: base.segment(),
            });
        }
        self.nodes.push(seg.other_endpoint(join));
        union_into(&mut self.trajectories, &base.trajectories);
        self.members.push(base);
        Ok(())
    }

    /// Prepends `base` at the front of the route. Its segment must be
    /// incident to [`FlowCluster::front_endpoint`].
    ///
    /// # Errors
    ///
    /// Same as [`FlowCluster::push_back`].
    pub fn push_front(&mut self, net: &RoadNetwork, base: BaseCluster) -> Result<(), NeatError> {
        let seg = net
            .segment(base.segment())
            .map_err(|_| NeatError::UnknownSegment(base.segment()))?;
        let join = self.front_endpoint();
        if !seg.has_endpoint(join) {
            return Err(NeatError::NotAdjacent {
                end: self.members.first().expect("non-empty").segment(), // lint:allow(L1) reason=members is non-empty whenever an extension is attempted
                candidate: base.segment(),
            });
        }
        self.nodes.insert(0, seg.other_endpoint(join));
        union_into(&mut self.trajectories, &base.trajectories);
        self.members.insert(0, base);
        Ok(())
    }
}

/// A final trajectory cluster (Phase-3 output): one or more flow clusters
/// whose representative routes are density-connected under the modified
/// Hausdorff network distance.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrajectoryCluster {
    flows: Vec<FlowCluster>,
}

impl TrajectoryCluster {
    /// Creates a trajectory cluster from its member flows.
    ///
    /// # Panics
    ///
    /// Panics when `flows` is empty — a cluster always has at least one
    /// member.
    pub fn new(flows: Vec<FlowCluster>) -> Self {
        assert!(!flows.is_empty(), "trajectory cluster cannot be empty");
        TrajectoryCluster { flows }
    }

    /// Member flow clusters.
    pub fn flows(&self) -> &[FlowCluster] {
        &self.flows
    }

    /// Total t-fragment count.
    pub fn density(&self) -> usize {
        self.flows.iter().map(FlowCluster::density).sum()
    }

    /// Number of distinct participating trajectories.
    pub fn trajectory_cardinality(&self) -> usize {
        self.trajectory_union().len()
    }

    /// The distinct participating trajectories of all member flows,
    /// ascending.
    pub(crate) fn trajectory_union(&self) -> Box<[TrajectoryId]> {
        sorted_ids(
            self.flows
                .iter()
                .flat_map(|f| f.participating_trajectories().iter().copied())
                .collect(),
        )
    }

    /// Sum of the member flows' representative-route lengths in metres.
    pub fn total_route_length(&self, net: &RoadNetwork) -> f64 {
        self.flows.iter().map(|f| f.route_length(net)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation};

    fn frag(tr: u64, seg: usize) -> TFragment {
        let loc = RoadLocation::new(SegmentId::new(seg), Point::new(0.0, 0.0), 0.0);
        TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(seg),
            first: loc,
            last: loc,
            point_count: 2,
        }
    }

    #[test]
    fn base_cluster_density_and_cardinality() {
        // Paper Figure 1(b): S1 holds 4 t-fragments of 3 trajectories.
        let s = BaseCluster::new(
            SegmentId::new(0),
            vec![frag(1, 0), frag(1, 0), frag(2, 0), frag(3, 0)],
        )
        .unwrap();
        assert_eq!(s.density(), 4);
        assert_eq!(s.trajectory_cardinality(), 3);
    }

    #[test]
    fn base_cluster_rejects_foreign_fragment() {
        let err = BaseCluster::new(SegmentId::new(0), vec![frag(1, 1)]).unwrap_err();
        assert!(matches!(err, NeatError::SegmentMismatch { .. }));
    }

    #[test]
    fn netflow_counts_shared_trajectories() {
        let s1 =
            BaseCluster::new(SegmentId::new(0), vec![frag(1, 0), frag(2, 0), frag(3, 0)]).unwrap();
        let s2 =
            BaseCluster::new(SegmentId::new(1), vec![frag(2, 1), frag(3, 1), frag(4, 1)]).unwrap();
        assert_eq!(s1.netflow(&s2), 2);
        assert_eq!(s2.netflow(&s1), 2); // symmetric
        let s3 = BaseCluster::new(SegmentId::new(2), vec![frag(9, 2)]).unwrap();
        assert_eq!(s1.netflow(&s3), 0);
    }

    #[test]
    fn flow_cluster_grows_both_ends() {
        // chain: n0 -s0- n1 -s1- n2 -s2- n3
        let net = chain_network(4, 100.0, 10.0);
        let b0 = BaseCluster::new(SegmentId::new(0), vec![frag(1, 0)]).unwrap();
        let b1 = BaseCluster::new(SegmentId::new(1), vec![frag(1, 1), frag(2, 1)]).unwrap();
        let b2 = BaseCluster::new(SegmentId::new(2), vec![frag(2, 2)]).unwrap();
        let mut flow = FlowCluster::from_base(&net, b1).unwrap();
        assert_eq!(flow.endpoints(), (NodeId::new(1), NodeId::new(2)));
        flow.push_back(&net, b2).unwrap();
        assert_eq!(flow.back_endpoint(), NodeId::new(3));
        flow.push_front(&net, b0).unwrap();
        assert_eq!(flow.front_endpoint(), NodeId::new(0));
        assert_eq!(
            flow.route(),
            vec![SegmentId::new(0), SegmentId::new(1), SegmentId::new(2)]
        );
        assert!(net.is_route(&flow.route()));
        assert_eq!(flow.node_chain().len(), 4);
        assert_eq!(flow.trajectory_cardinality(), 2);
        assert_eq!(flow.density(), 4);
        assert!((flow.route_length(&net) - 300.0).abs() < 1e-9);
    }

    #[test]
    fn flow_cluster_rejects_non_adjacent() {
        let net = chain_network(5, 100.0, 10.0);
        let b0 = BaseCluster::new(SegmentId::new(0), vec![frag(1, 0)]).unwrap();
        let b3 = BaseCluster::new(SegmentId::new(3), vec![frag(1, 3)]).unwrap();
        let mut flow = FlowCluster::from_base(&net, b0).unwrap();
        assert!(matches!(
            flow.push_back(&net, b3),
            Err(NeatError::NotAdjacent { .. })
        ));
    }

    #[test]
    fn flow_netflow_with_base() {
        let net = chain_network(3, 100.0, 10.0);
        let b0 = BaseCluster::new(SegmentId::new(0), vec![frag(1, 0), frag(2, 0)]).unwrap();
        let b1 = BaseCluster::new(SegmentId::new(1), vec![frag(2, 1), frag(3, 1)]).unwrap();
        let flow = FlowCluster::from_base(&net, b0).unwrap();
        assert_eq!(flow.netflow_with(&b1), 1);
    }

    #[test]
    fn trajectory_cluster_aggregates() {
        let net = chain_network(4, 100.0, 10.0);
        let b0 = BaseCluster::new(SegmentId::new(0), vec![frag(1, 0)]).unwrap();
        let b2 = BaseCluster::new(SegmentId::new(2), vec![frag(1, 2), frag(2, 2)]).unwrap();
        let f0 = FlowCluster::from_base(&net, b0).unwrap();
        let f1 = FlowCluster::from_base(&net, b2).unwrap();
        let c = TrajectoryCluster::new(vec![f0, f1]);
        assert_eq!(c.flows().len(), 2);
        assert_eq!(c.density(), 3);
        assert_eq!(c.trajectory_cardinality(), 2); // trajectories 1 and 2
        assert!((c.total_route_length(&net) - 200.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn empty_trajectory_cluster_panics() {
        let _ = TrajectoryCluster::new(vec![]);
    }

    #[test]
    fn intersection_size_handles_either_side_smaller() {
        let a: Vec<TrajectoryId> = (0..100).map(TrajectoryId::new).collect();
        let b: Vec<TrajectoryId> = (50..53).map(TrajectoryId::new).collect();
        assert_eq!(intersection_size(&a, &b), 3);
        assert_eq!(intersection_size(&b, &a), 3);
        assert_eq!(intersection_size(&a, &[]), 0);
    }

    #[test]
    fn union_into_appends_prepends_and_merges() {
        let ids =
            |v: &[u64]| -> Vec<TrajectoryId> { v.iter().map(|&t| TrajectoryId::new(t)).collect() };
        let cases: [(&[u64], &[u64], &[u64]); 6] = [
            (&[], &[1, 2], &[1, 2]),
            (&[1, 2], &[], &[1, 2]),
            (&[1, 2], &[3, 4], &[1, 2, 3, 4]),
            (&[3, 4], &[1, 2], &[1, 2, 3, 4]),
            (&[1, 3, 5], &[2, 3, 4, 5, 6], &[1, 2, 3, 4, 5, 6]),
            (&[2, 4], &[2, 4], &[2, 4]),
        ];
        for (acc, add, want) in cases {
            let mut acc = ids(acc);
            union_into(&mut acc, &ids(add));
            assert_eq!(acc, ids(want));
        }
    }

    #[test]
    fn from_parts_union_equals_the_merged_union() {
        let net = chain_network(5, 100.0, 10.0);
        let specs: [&[u64]; 4] = [&[7, 3, 3], &[1, 9], &[3, 12, 2], &[20, 1, 8]];
        let members: Vec<BaseCluster> = specs
            .iter()
            .enumerate()
            .map(|(s, ids)| {
                BaseCluster::new(SegmentId::new(s), ids.iter().map(|&t| frag(t, s)).collect())
                    .unwrap()
            })
            .collect();
        let mut merged = FlowCluster::from_base(&net, members[1].clone()).unwrap();
        merged.push_front(&net, members[0].clone()).unwrap();
        merged.push_back(&net, members[2].clone()).unwrap();
        merged.push_back(&net, members[3].clone()).unwrap();
        let rebuilt = FlowCluster::from_parts(members, merged.node_chain().to_vec()).unwrap();
        let want: Vec<TrajectoryId> = [1, 2, 3, 7, 8, 9, 12, 20]
            .into_iter()
            .map(TrajectoryId::new)
            .collect();
        assert_eq!(merged.participating_trajectories(), want.as_slice());
        assert_eq!(rebuilt, merged);
    }
}
