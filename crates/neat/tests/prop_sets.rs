//! Property tests of the participating-trajectory set kernels against a
//! `BTreeSet` reference, through the public cluster API:
//!
//! * `BaseCluster::new` on fragments with unsorted and repeated
//!   trajectory ids yields the ascending, duplicate-free set;
//! * `BaseCluster::netflow` and `FlowCluster::netflow_with` (the merge
//!   walk, and the binary search when one side is far larger) equal the
//!   reference intersection size;
//! * the union a flow keeps as `push_back`/`push_front` merge members
//!   into it equals the reference union.

use neat_core::{BaseCluster, FlowCluster};
use neat_rnet::netgen::chain_network;
use neat_rnet::{Point, RoadLocation, SegmentId};
use neat_traj::{TFragment, TrajectoryId};
use proptest::prelude::*;
use std::collections::BTreeSet;

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

/// A base cluster on `seg` with one fragment per entry of `ids`, in the
/// given (possibly unsorted, possibly repeating) order.
fn base(seg: usize, ids: &[u64]) -> BaseCluster {
    BaseCluster::new(
        SegmentId::new(seg),
        ids.iter().map(|&t| frag(t, seg)).collect(),
    )
    .unwrap()
}

fn reference(ids: &[u64]) -> BTreeSet<u64> {
    ids.iter().copied().collect()
}

fn values(ids: &[TrajectoryId]) -> Vec<u64> {
    ids.iter().map(|t| t.value()).collect()
}

/// Shapes an id pair: 0 random overlap, 1 one side empty, 2 disjoint,
/// 3 identical, 4 a tiny side against one ≥1000× larger, 5 both large
/// and interleaved, 6 a run of four consecutive ids against one 750×
/// larger (so a miss in the large side is followed by a hit).
fn shape(kind: u8, xs: Vec<u64>, ys: Vec<u64>, seed: u64) -> (Vec<u64>, Vec<u64>) {
    match kind {
        0 => (xs, ys),
        1 => (xs, Vec::new()),
        2 => (xs, ys.into_iter().map(|y| y + 1_000_000).collect()),
        3 => {
            let mut shuffled = xs.clone();
            shuffled.reverse();
            (xs, shuffled)
        }
        4 => {
            let large: Vec<u64> = (0..3000).map(|i| i * 3 + seed % 3).collect();
            (xs.into_iter().take(3).map(|x| x * 2).collect(), large)
        }
        5 => (
            (0..1500).map(|i| i * 2).collect(),
            (0..1500).map(|i| i * 3 + seed % 2).collect(),
        ),
        _ => {
            let large: Vec<u64> = (0..3000).map(|i| i * 3 + seed % 3).collect();
            let start = xs[0] * 2;
            ((start..start + 4).collect(), large)
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    #[test]
    fn base_cluster_set_is_sorted_and_deduplicated(
        ids in proptest::collection::vec(0u64..60, 1..80),
    ) {
        let b = base(0, &ids);
        let want: Vec<u64> = reference(&ids).into_iter().collect();
        prop_assert_eq!(values(b.participating_trajectories()), want);
        prop_assert_eq!(b.trajectory_cardinality(), reference(&ids).len());
        prop_assert_eq!(b.density(), ids.len());
    }

    #[test]
    fn netflow_equals_reference_intersection(
        kind in 0u8..7,
        xs in proptest::collection::vec(0u64..400, 1..120),
        ys in proptest::collection::vec(0u64..400, 1..120),
        seed in 0u64..1000,
    ) {
        let (xs, ys) = shape(kind, xs, ys, seed);
        let want = reference(&xs).intersection(&reference(&ys)).count();
        let (a, b) = (base(0, &xs), base(1, &ys));
        prop_assert_eq!(a.netflow(&b), want);
        prop_assert_eq!(b.netflow(&a), want);
        let net = chain_network(3, 100.0, 10.0);
        let flow = FlowCluster::from_base(&net, a.clone()).unwrap();
        prop_assert_eq!(flow.netflow_with(&b), want);
    }

    #[test]
    fn flow_union_equals_reference_union(
        groups in proptest::collection::vec(
            proptest::collection::vec(0u64..300, 1..40), 1..9),
        fronts in proptest::collection::vec(0u8..2, 9..10),
        skew in 0u8..3,
    ) {
        // Members grow outward from the middle of a chain, each pushed at
        // the back or the front, so unions merge ids below, above and
        // among the ones already held.
        let n = groups.len();
        let net = chain_network(2 * n + 2, 100.0, 10.0);
        let mut groups = groups;
        if skew == 0 {
            groups[0] = (0..2000).collect();
        }
        let mut want: BTreeSet<u64> = BTreeSet::new();
        let (mut lo, mut hi) = (n, n);
        let mut flow = FlowCluster::from_base(&net, base(n, &groups[0])).unwrap();
        want.extend(groups[0].iter().copied());
        for (g, &front) in groups.iter().zip(&fronts).skip(1) {
            if front == 1 {
                lo -= 1;
                flow.push_front(&net, base(lo, g)).unwrap();
            } else {
                hi += 1;
                flow.push_back(&net, base(hi, g)).unwrap();
            }
            want.extend(g.iter().copied());
            let want_now: Vec<u64> = want.iter().copied().collect();
            prop_assert_eq!(values(flow.participating_trajectories()), want_now);
        }
        prop_assert_eq!(flow.trajectory_cardinality(), want.len());
    }
}
