//! Integration tests reproducing the paper's worked examples.
//!
//! Figure 1(b) lays out five trajectories on four road segments and walks
//! through every definition: densities, dense-core, netflows,
//! f-neighbourhoods and the maxFlow-neighbour. These tests hard-code that
//! example and assert each number the paper states.

use neat_repro::neat::model::BaseCluster;
use neat_repro::neat::phase1::{form_base_clusters_parallel_with_policy, Phase1Output};
use neat_repro::neat::phase2::form_flow_clusters;
use neat_repro::neat::{ErrorPolicy, NeatConfig, NeatError, Weights};
use neat_repro::rnet::{Point, RoadLocation, RoadNetwork, RoadNetworkBuilder, SegmentId};
use neat_repro::traj::{Dataset, Trajectory, TrajectoryId};

/// Phase 1 on one thread under the strict policy.
fn phase1(net: &RoadNetwork, data: &Dataset, junctions: bool) -> Result<Phase1Output, NeatError> {
    form_base_clusters_parallel_with_policy(net, data, junctions, 1, ErrorPolicy::Strict)
        .map(|(out, _)| out)
}

/// The Figure 1(b) road network: four segments meeting at junction n2.
///
/// n1 —s1— n2 —s2— n3 ; n2 —s3— n4 ; n2 —s4— n5
fn figure1_network() -> (RoadNetwork, [SegmentId; 4]) {
    let mut b = RoadNetworkBuilder::new();
    let n1 = b.add_node(Point::new(-200.0, 0.0));
    let n2 = b.add_node(Point::new(0.0, 0.0));
    let n3 = b.add_node(Point::new(200.0, 100.0));
    let n4 = b.add_node(Point::new(200.0, 0.0));
    let n5 = b.add_node(Point::new(200.0, -100.0));
    let s1 = b.add_segment(n1, n2, 13.9).unwrap();
    let s2 = b.add_segment(n2, n3, 13.9).unwrap();
    let s3 = b.add_segment(n2, n4, 13.9).unwrap();
    let s4 = b.add_segment(n2, n5, 13.9).unwrap();
    (b.build().unwrap(), [s1, s2, s3, s4])
}

/// The Figure 1(b) trajectories, expressed as segment visit sequences.
///
/// Constructed so that (with one trajectory travelling s1 twice — the
/// paper's S1 holds 4 t-fragments of 3 trajectories):
///   d(S1)=4, d(S2)=3, d(S3)=1, d(S4)=2,
///   f(S1,S2)=2, f(S1,S3)=1, f(S1,S4)=1, f(S2,S3)=0, f(S2,S4)=1.
fn figure1_dataset(segs: &[SegmentId; 4]) -> Dataset {
    let [s1, s2, s3, s4] = *segs;
    // Sample positions: mid-segment points, two per visited segment.
    let mk = |id: u64, visits: &[SegmentId]| {
        let mut t = 0.0;
        let mut pts = Vec::new();
        for &sid in visits {
            let base = match sid {
                s if s == s1 => Point::new(-100.0, 0.0),
                s if s == s2 => Point::new(100.0, 50.0),
                s if s == s3 => Point::new(100.0, 0.0),
                _ => Point::new(100.0, -50.0),
            };
            pts.push(RoadLocation::new(sid, base, t));
            pts.push(RoadLocation::new(sid, base, t + 1.0));
            t += 10.0;
        }
        Trajectory::new(TrajectoryId::new(id), pts).unwrap()
    };
    let mut d = Dataset::new("figure1b");
    // tr1: s1 → s2 → (u-turn) s4 ; tr2: s1 → s2 → back over s1 (so S1
    // holds two of tr2's fragments) ; tr3: s1 → s3 ; tr4: s2 ; tr5: s4.
    // This yields P_Tr(S1) = {1,2,3}, P_Tr(S2) = {1,2,4}, P_Tr(S3) = {3},
    // P_Tr(S4) = {1,5} — exactly the paper's densities and netflows.
    d.push(mk(1, &[s1, s2, s4]));
    d.push(mk(2, &[s1, s2, s1]));
    d.push(mk(3, &[s1, s3]));
    d.push(mk(4, &[s2]));
    d.push(mk(5, &[s4]));
    d
}

fn cluster_for(bases: &[BaseCluster], sid: SegmentId) -> &BaseCluster {
    bases.iter().find(|c| c.segment() == sid).expect("cluster")
}

#[test]
fn figure1b_densities_and_dense_core() {
    let (net, segs) = figure1_network();
    let data = figure1_dataset(&segs);
    let out = phase1(&net, &data, true).unwrap();
    assert_eq!(out.base_clusters.len(), 4);
    let d = |sid| cluster_for(&out.base_clusters, sid).density();
    assert_eq!(d(segs[0]), 4, "d(S1)");
    assert_eq!(d(segs[1]), 3, "d(S2)");
    assert_eq!(d(segs[2]), 1, "d(S3)");
    assert_eq!(d(segs[3]), 2, "d(S4)");
    // Dense-core is S1 with the highest density.
    assert_eq!(out.dense_core().unwrap().segment(), segs[0]);
}

#[test]
fn figure1b_netflows() {
    let (net, segs) = figure1_network();
    let data = figure1_dataset(&segs);
    let out = phase1(&net, &data, true).unwrap();
    let c = |sid| cluster_for(&out.base_clusters, sid);
    let f = |a, b| c(a).netflow(c(b));
    assert_eq!(f(segs[0], segs[1]), 2, "f(S1,S2)");
    assert_eq!(f(segs[0], segs[2]), 1, "f(S1,S3)");
    assert_eq!(f(segs[0], segs[3]), 1, "f(S1,S4)");
    assert_eq!(f(segs[1], segs[2]), 0, "f(S2,S3)");
    assert_eq!(f(segs[1], segs[3]), 1, "f(S2,S4)");
    // Symmetry, as Definition 6 notes.
    assert_eq!(f(segs[1], segs[0]), 2);
}

#[test]
fn figure1b_trajectory_cardinality() {
    let (net, segs) = figure1_network();
    let data = figure1_dataset(&segs);
    let out = phase1(&net, &data, true).unwrap();
    // S1 has 4 t-fragments but only 3 participating trajectories.
    let s1 = cluster_for(&out.base_clusters, segs[0]);
    assert_eq!(s1.density(), 4);
    assert_eq!(s1.trajectory_cardinality(), 3);
}

#[test]
fn figure1b_maxflow_neighbor_merges_first() {
    let (net, segs) = figure1_network();
    let data = figure1_dataset(&segs);
    let out = phase1(&net, &data, true).unwrap();
    // With flow-only weights the first flow grown from the dense-core S1
    // must merge S2 (its maxFlow-neighbour with f=2).
    let config = NeatConfig {
        weights: Weights::flow_only(),
        min_card: 1,
        ..NeatConfig::default()
    };
    let flows = form_flow_clusters(&net, out.base_clusters, &config).unwrap();
    let first = &flows.flow_clusters[0];
    assert!(first.route().contains(&segs[0]));
    assert!(first.route().contains(&segs[1]));
    assert!(net.is_route(&first.route()));
}

#[test]
fn figure1a_trajectory_splits_into_three_fragments() {
    // Figure 1(a): a trajectory crossing three road segments becomes
    // exactly three t-fragments.
    let (net, segs) = figure1_network();
    // Travel s1 → s2 is 2 fragments; use s1 → s3 → back to s4? s3 and s4
    // share only n2; a route s1,s3 then s3,s4 pivots. Use s2 → s1 → s3.
    let pts = vec![
        RoadLocation::new(segs[1], Point::new(100.0, 50.0), 0.0),
        RoadLocation::new(segs[0], Point::new(-100.0, 0.0), 10.0),
        RoadLocation::new(segs[2], Point::new(100.0, 0.0), 20.0),
    ];
    let tr = Trajectory::new(TrajectoryId::new(9), pts).unwrap();
    let mut d = Dataset::new("fig1a");
    d.push(tr);
    let out = phase1(&net, &d, true).unwrap();
    assert_eq!(out.fragment_count, 3);
    assert_eq!(out.base_clusters.len(), 3);
}
