//! Property test for the ALT landmark lower bound: on arbitrary
//! generated networks the bound must never exceed the true network
//! distance, and the combined phase-3 filter bound `max(euclidean, alt)`
//! must never undercut the Euclidean bound it tightens — together, zero
//! loss of exactness.

use neat_rnet::alt::AltLandmarks;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::path::{ShortestPathEngine, TravelMode};
use neat_rnet::NodeId;
use proptest::prelude::*;

fn net_for(rows: usize, cols: usize, seed: u64, ratio: f64) -> neat_rnet::RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(rows, cols);
    cfg.segment_ratio = ratio; // low ratios delete edges, even splitting the graph
    generate_grid_network(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn alt_bound_is_sandwiched(seed in 0u64..50,
                               rows in 3usize..8,
                               cols in 3usize..8,
                               ratio in 1.2..2.0f64,
                               k in 1usize..6,
                               pair_seed in 0usize..1000) {
        let net = net_for(rows, cols, seed, ratio);
        let n = net.node_count();
        prop_assume!(n >= 2);
        let mut engine = ShortestPathEngine::new(&net);
        let alt = AltLandmarks::build(&net, &mut engine, k, TravelMode::Undirected, None).unwrap();

        let a = NodeId::new(pair_seed % n);
        let b = NodeId::new((pair_seed * 7 + 3) % n);
        let lb = alt.lower_bound(a, b);
        let euclid = net.position(a).distance(net.position(b));
        let combined = euclid.max(lb);

        // Never undercuts the Euclidean bound it is layered on.
        prop_assert!(combined >= euclid);
        prop_assert!(lb >= 0.0 && lb.is_finite());

        match engine.distance(&net, a, b, TravelMode::Undirected, f64::INFINITY, None).unwrap() {
            Some(d) => {
                // Exactness: both bounds stay below the true distance.
                prop_assert!(lb <= d + 1e-9,
                    "ALT bound {lb} exceeds network distance {d}");
                prop_assert!(combined <= d + 1e-9,
                    "combined bound {combined} exceeds network distance {d}");
            }
            None => {
                // Unreachable pair: every finite bound is valid.
                prop_assert!(lb.is_finite());
            }
        }
    }
}
