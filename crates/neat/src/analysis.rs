//! Summary statistics over clustering results.
//!
//! The paper's Figures 5(a)–(c) compare clusterings by the lengths of
//! their representative routes and by cluster counts; this module computes
//! those summaries (plus cardinality and coverage measures useful to
//! downstream applications) for any set of flow clusters.

use crate::model::{sorted_ids, FlowCluster, TrajectoryCluster};
use neat_rnet::RoadNetwork;
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Aggregate statistics of a set of flow clusters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct FlowStatistics {
    /// Number of flow clusters.
    pub count: usize,
    /// Mean representative-route length in metres (Figure 5a).
    pub avg_route_length_m: f64,
    /// Maximum representative-route length in metres (Figure 5b).
    pub max_route_length_m: f64,
    /// Mean trajectory cardinality per flow.
    pub avg_cardinality: f64,
    /// Number of distinct road segments covered by the flows.
    pub covered_segments: usize,
    /// Number of distinct trajectories participating in any flow.
    pub distinct_trajectories: usize,
}

/// Computes [`FlowStatistics`] over `flows`.
pub fn flow_statistics(net: &RoadNetwork, flows: &[FlowCluster]) -> FlowStatistics {
    if flows.is_empty() {
        return FlowStatistics::default();
    }
    let lens: Vec<f64> = flows.iter().map(|f| f.route_length(net)).collect();
    let mut segments = BTreeSet::new();
    let mut trajectories = Vec::new();
    for f in flows {
        segments.extend(f.route());
        trajectories.extend_from_slice(f.participating_trajectories());
    }
    let trajectories = sorted_ids(trajectories);
    FlowStatistics {
        count: flows.len(),
        avg_route_length_m: lens.iter().sum::<f64>() / lens.len() as f64,
        max_route_length_m: lens.iter().copied().fold(0.0, f64::max),
        avg_cardinality: flows
            .iter()
            .map(|f| f.trajectory_cardinality() as f64)
            .sum::<f64>()
            / flows.len() as f64,
        covered_segments: segments.len(),
        distinct_trajectories: trajectories.len(),
    }
}

/// Direction of travel of the t-fragments in a base cluster along its
/// representative segment: the paper preserves movement direction in
/// t-fragments, so a cluster's traffic can be split by travel direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct DirectionSplit {
    /// Fragments travelling from the segment's `a` endpoint towards `b`.
    pub forward: usize,
    /// Fragments travelling from `b` towards `a`.
    pub backward: usize,
    /// Fragments with no measurable displacement along the segment
    /// (single-sample fragments or stationary objects).
    pub undetermined: usize,
}

impl DirectionSplit {
    /// Fraction of directed fragments going forward, in `[0, 1]`;
    /// 0.5 when no fragment has a measurable direction.
    pub fn forward_fraction(&self) -> f64 {
        let directed = self.forward + self.backward;
        if directed == 0 {
            0.5
        } else {
            self.forward as f64 / directed as f64
        }
    }
}

/// Splits a base cluster's fragments by travel direction along its
/// representative segment (projection of first→last displacement onto
/// the segment's `a → b` axis).
pub fn direction_split(net: &RoadNetwork, cluster: &crate::model::BaseCluster) -> DirectionSplit {
    let mut out = DirectionSplit::default();
    let Ok(seg) = net.segment(cluster.segment()) else {
        out.undetermined = cluster.density();
        return out;
    };
    let axis = net.position(seg.b) - net.position(seg.a);
    for f in cluster.fragments() {
        let disp = f.last.position - f.first.position;
        let along = disp.dot(axis);
        if along > 1e-9 {
            out.forward += 1;
        } else if along < -1e-9 {
            out.backward += 1;
        } else {
            out.undetermined += 1;
        }
    }
    out
}

/// Aggregate statistics of the final trajectory clusters.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ClusterStatistics {
    /// Number of trajectory clusters.
    pub count: usize,
    /// Mean flows per cluster.
    pub avg_flows_per_cluster: f64,
    /// Size (in flows) of the largest cluster.
    pub max_flows_per_cluster: usize,
    /// Mean total route length per cluster, in metres.
    pub avg_total_route_length_m: f64,
}

/// Computes [`ClusterStatistics`] over `clusters`.
pub fn cluster_statistics(net: &RoadNetwork, clusters: &[TrajectoryCluster]) -> ClusterStatistics {
    if clusters.is_empty() {
        return ClusterStatistics::default();
    }
    ClusterStatistics {
        count: clusters.len(),
        avg_flows_per_cluster: clusters.iter().map(|c| c.flows().len() as f64).sum::<f64>()
            / clusters.len() as f64,
        max_flows_per_cluster: clusters.iter().map(|c| c.flows().len()).max().unwrap_or(0),
        avg_total_route_length_m: clusters
            .iter()
            .map(|c| c.total_route_length(net))
            .sum::<f64>()
            / clusters.len() as f64,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::BaseCluster;
    use neat_rnet::netgen::chain_network;
    use neat_rnet::{Point, RoadLocation, SegmentId};
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

    fn flow(net: &neat_rnet::RoadNetwork, segs: &[usize], trs: &[u64]) -> FlowCluster {
        let mut it = segs.iter();
        let first = *it.next().unwrap();
        let mk = |s: usize| {
            BaseCluster::new(SegmentId::new(s), trs.iter().map(|&t| frag(t, s)).collect()).unwrap()
        };
        let mut f = FlowCluster::from_base(net, mk(first)).unwrap();
        for &s in it {
            f.push_back(net, mk(s)).unwrap();
        }
        f
    }

    #[test]
    fn empty_inputs_give_defaults() {
        let net = chain_network(3, 100.0, 10.0);
        assert_eq!(flow_statistics(&net, &[]), FlowStatistics::default());
        assert_eq!(cluster_statistics(&net, &[]), ClusterStatistics::default());
    }

    #[test]
    fn flow_statistics_aggregate() {
        let net = chain_network(8, 100.0, 10.0);
        let flows = vec![
            flow(&net, &[0, 1, 2], &[1, 2]), // 300 m, card 2
            flow(&net, &[4], &[2, 3, 4]),    // 100 m, card 3
        ];
        let s = flow_statistics(&net, &flows);
        assert_eq!(s.count, 2);
        assert!((s.avg_route_length_m - 200.0).abs() < 1e-9);
        assert!((s.max_route_length_m - 300.0).abs() < 1e-9);
        assert!((s.avg_cardinality - 2.5).abs() < 1e-9);
        assert_eq!(s.covered_segments, 4);
        assert_eq!(s.distinct_trajectories, 4); // trajectories 1..=4
    }

    #[test]
    fn direction_split_classifies_fragments() {
        let net = chain_network(3, 100.0, 10.0);
        // Segment 0 runs from x=0 (a) to x=100 (b).
        let mk = |tr: u64, x0: f64, x1: f64| TFragment {
            trajectory: TrajectoryId::new(tr),
            segment: SegmentId::new(0),
            first: RoadLocation::new(SegmentId::new(0), Point::new(x0, 0.0), 0.0),
            last: RoadLocation::new(SegmentId::new(0), Point::new(x1, 0.0), 5.0),
            point_count: 2,
        };
        let cluster = BaseCluster::new(
            SegmentId::new(0),
            vec![
                mk(1, 10.0, 90.0), // forward
                mk(2, 20.0, 80.0), // forward
                mk(3, 90.0, 10.0), // backward
                mk(4, 50.0, 50.0), // stationary
            ],
        )
        .unwrap();
        let split = super::direction_split(&net, &cluster);
        assert_eq!(split.forward, 2);
        assert_eq!(split.backward, 1);
        assert_eq!(split.undetermined, 1);
        assert!((split.forward_fraction() - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn direction_split_of_unknown_segment_is_undetermined() {
        let net = chain_network(3, 100.0, 10.0);
        let cluster = BaseCluster::new(SegmentId::new(77), vec![frag(1, 77)]).unwrap();
        let split = super::direction_split(&net, &cluster);
        assert_eq!(split.undetermined, 1);
        assert_eq!(split.forward_fraction(), 0.5);
    }

    #[test]
    fn cluster_statistics_aggregate() {
        let net = chain_network(10, 100.0, 10.0);
        let clusters = vec![
            TrajectoryCluster::new(vec![flow(&net, &[0, 1], &[1]), flow(&net, &[3], &[2])]),
            TrajectoryCluster::new(vec![flow(&net, &[6, 7, 8], &[3])]),
        ];
        let s = cluster_statistics(&net, &clusters);
        assert_eq!(s.count, 2);
        assert!((s.avg_flows_per_cluster - 1.5).abs() < 1e-9);
        assert_eq!(s.max_flows_per_cluster, 2);
        assert!((s.avg_total_route_length_m - 300.0).abs() < 1e-9);
    }
}
