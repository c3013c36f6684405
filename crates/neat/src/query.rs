//! Spatial queries over clustering results.
//!
//! The paper's motivating applications (Section I) both ask questions of
//! the *result*: "which major flows pass near this store?", "which routes
//! carry enough riders for a bus line?". [`FlowIndex`] answers those
//! without rescanning the network: it indexes the flows' representative
//! routes by segment and supports point-radius and segment lookups.

use crate::model::{sorted_ids, FlowCluster};
use neat_rnet::geometry::point_segment_distance;
use neat_rnet::{Point, RoadNetwork, SegmentId, SegmentIndex};
use std::collections::HashMap;

/// A hit returned by [`FlowIndex::flows_near`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowHit {
    /// Index of the flow in the slice the index was built from.
    pub flow: usize,
    /// Distance from the query point to the nearest segment of the flow's
    /// representative route, in metres.
    pub distance: f64,
}

/// Segment-keyed index over a set of flow clusters.
///
/// ```
/// use neat_core::query::FlowIndex;
/// use neat_core::{BaseCluster, FlowCluster};
/// use neat_rnet::netgen::chain_network;
/// use neat_rnet::{Point, RoadLocation, SegmentId};
/// use neat_traj::{TFragment, TrajectoryId};
///
/// # fn main() -> Result<(), neat_core::NeatError> {
/// let net = chain_network(4, 100.0, 13.9);
/// let loc = RoadLocation::new(SegmentId::new(0), Point::new(0.0, 0.0), 0.0);
/// let frag = TFragment { trajectory: TrajectoryId::new(1), segment: SegmentId::new(0),
///                        first: loc, last: loc, point_count: 2 };
/// let flow = FlowCluster::from_base(&net, BaseCluster::new(SegmentId::new(0), vec![frag])?)?;
/// let flows = vec![flow];
/// let index = FlowIndex::build(&net, &flows);
/// let hits = index.flows_near(&net, Point::new(50.0, 20.0), 50.0);
/// assert_eq!(hits.len(), 1);
/// assert!((hits[0].distance - 20.0).abs() < 1e-9);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone)]
pub struct FlowIndex {
    /// Which flows cover each road segment.
    by_segment: HashMap<SegmentId, Vec<usize>>,
    /// Spatial index over the full network's segments.
    spatial: SegmentIndex,
}

impl FlowIndex {
    /// Builds an index over `flows` (order defines the hit indices).
    pub fn build(net: &RoadNetwork, flows: &[FlowCluster]) -> Self {
        let mut by_segment: HashMap<SegmentId, Vec<usize>> = HashMap::new();
        for (i, f) in flows.iter().enumerate() {
            for sid in f.route() {
                by_segment.entry(sid).or_default().push(i);
            }
        }
        FlowIndex {
            by_segment,
            spatial: SegmentIndex::build(net, 250.0),
        }
    }

    /// Flows whose representative route covers road segment `sid`.
    pub fn flows_on(&self, sid: SegmentId) -> &[usize] {
        self.by_segment.get(&sid).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Number of distinct segments covered by any flow.
    pub fn covered_segment_count(&self) -> usize {
        self.by_segment.len()
    }

    /// Flows whose representative route passes within `radius` metres of
    /// `point`, sorted by distance (ties by flow index). Each flow is
    /// reported once with its closest approach.
    pub fn flows_near(&self, net: &RoadNetwork, point: Point, radius: f64) -> Vec<FlowHit> {
        let mut best: HashMap<usize, f64> = HashMap::new();
        for hit in self.spatial.within(net, point, radius) {
            let Some(owners) = self.by_segment.get(&hit.segment) else {
                continue;
            };
            let seg = net.segment(hit.segment).expect("indexed segment"); // lint:allow(L1) reason=index hits reference segments of the same network
            let d = point_segment_distance(point, net.position(seg.a), net.position(seg.b));
            for &f in owners {
                let e = best.entry(f).or_insert(f64::INFINITY);
                if d < *e {
                    *e = d;
                }
            }
        }
        let mut out: Vec<FlowHit> = best
            .into_iter()
            .map(|(flow, distance)| FlowHit { flow, distance })
            .collect();
        out.sort_by(|a, b| {
            a.distance
                .total_cmp(&b.distance)
                .then_with(|| a.flow.cmp(&b.flow))
        });
        out
    }

    /// Total trajectory reach of the flows within `radius` of `point` —
    /// the "advertising reach" quantity of the paper's second motivating
    /// application.
    pub fn reach_near(
        &self,
        net: &RoadNetwork,
        flows: &[FlowCluster],
        point: Point,
        radius: f64,
    ) -> usize {
        let mut ids = Vec::new();
        for hit in self.flows_near(net, point, radius) {
            ids.extend_from_slice(flows[hit.flow].participating_trajectories());
        }
        sorted_ids(ids).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BaseCluster;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::RoadLocation;
    use neat_traj::{TFragment, TrajectoryId};

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

    fn flow(net: &RoadNetwork, segs: &[usize], trs: &[u64]) -> FlowCluster {
        let mk = |s: usize| {
            BaseCluster::new(SegmentId::new(s), trs.iter().map(|&t| frag(t, s)).collect()).unwrap()
        };
        let mut it = segs.iter();
        let mut f = FlowCluster::from_base(net, mk(*it.next().unwrap())).unwrap();
        for &s in it {
            f.push_back(net, mk(s)).unwrap();
        }
        f
    }

    #[test]
    fn flows_on_segment() {
        let net = chain_network(8, 100.0, 10.0);
        // Two flows sharing segment 2 (Phase 2 never produces overlap,
        // but the index supports flows from multiple runs).
        let flows = vec![flow(&net, &[0, 1, 2], &[1]), flow(&net, &[2, 3], &[2])];
        let idx = FlowIndex::build(&net, &flows);
        assert_eq!(idx.flows_on(SegmentId::new(0)), &[0]);
        assert_eq!(idx.flows_on(SegmentId::new(2)), &[0, 1]);
        assert!(idx.flows_on(SegmentId::new(6)).is_empty());
        assert_eq!(idx.covered_segment_count(), 4);
    }

    #[test]
    fn flows_near_point() {
        let net = chain_network(10, 100.0, 10.0);
        let flows = vec![flow(&net, &[0, 1], &[1]), flow(&net, &[7, 8], &[2])];
        let idx = FlowIndex::build(&net, &flows);
        // Point above segment 0.
        let hits = idx.flows_near(&net, Point::new(50.0, 30.0), 100.0);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].flow, 0);
        assert!((hits[0].distance - 30.0).abs() < 1e-9);
        // Point far from everything.
        assert!(idx
            .flows_near(&net, Point::new(450.0, 5000.0), 100.0)
            .is_empty());
    }

    #[test]
    fn hits_sorted_by_distance() {
        let net = chain_network(10, 100.0, 10.0);
        let flows = vec![flow(&net, &[0, 1], &[1]), flow(&net, &[2, 3], &[2])];
        let idx = FlowIndex::build(&net, &flows);
        // Point near the boundary between segments 1 and 2, slightly
        // inside segment 2's half.
        let hits = idx.flows_near(&net, Point::new(205.0, 10.0), 300.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].flow, 1);
        assert!(hits[0].distance <= hits[1].distance);
    }

    #[test]
    fn reach_counts_distinct_trajectories() {
        let net = chain_network(10, 100.0, 10.0);
        let flows = vec![
            flow(&net, &[0, 1], &[1, 2, 3]),
            flow(&net, &[2, 3], &[3, 4]),
        ];
        let idx = FlowIndex::build(&net, &flows);
        // Point covering both flows: distinct trajectories {1,2,3,4}.
        let reach = idx.reach_near(&net, &flows, Point::new(200.0, 0.0), 150.0);
        assert_eq!(reach, 4);
        // Far point reaches nobody.
        assert_eq!(idx.reach_near(&net, &flows, Point::new(0.0, 9e5), 100.0), 0);
    }

    #[test]
    fn empty_flows() {
        let net = chain_network(4, 100.0, 10.0);
        let flows: Vec<FlowCluster> = Vec::new();
        let idx = FlowIndex::build(&net, &flows);
        assert_eq!(idx.covered_segment_count(), 0);
        assert!(idx
            .flows_near(&net, Point::new(0.0, 0.0), 1000.0)
            .is_empty());
    }
}
