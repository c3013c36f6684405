//! Property-based tests over the road-network substrate: the grid index
//! agrees with brute force, generated networks honour their invariants,
//! and the network I/O round-trips arbitrary generated maps.

use neat_rnet::geometry::point_segment_distance;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::{Point, SegmentIndex};
use proptest::prelude::*;

fn net_for(seed: u64, ratio: f64) -> neat_rnet::RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(7, 9);
    cfg.segment_ratio = ratio;
    generate_grid_network(&cfg, seed)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn index_nearest_matches_brute_force(seed in 0u64..20,
                                         x in -200.0..1100.0f64,
                                         y in -200.0..900.0f64,
                                         cell in 40.0..260.0f64) {
        let net = net_for(seed, 1.6);
        let idx = SegmentIndex::build(&net, cell);
        let p = Point::new(x, y);
        let fast = idx.nearest(&net, p).unwrap();
        let brute = net
            .segments()
            .map(|s| (s.id, point_segment_distance(p, net.position(s.a), net.position(s.b))))
            .min_by(|a, b| a.1.total_cmp(&b.1).then_with(|| a.0.cmp(&b.0)))
            .unwrap();
        prop_assert!((fast.distance - brute.1).abs() < 1e-9,
            "distance mismatch at {p}: {} vs {}", fast.distance, brute.1);
    }

    #[test]
    fn index_within_matches_brute_force(seed in 0u64..10,
                                        x in 0.0..800.0f64,
                                        y in 0.0..600.0f64,
                                        radius in 10.0..400.0f64) {
        let net = net_for(seed, 1.5);
        let idx = SegmentIndex::build(&net, 90.0);
        let p = Point::new(x, y);
        let fast: Vec<_> = idx.within(&net, p, radius).iter().map(|h| h.segment).collect();
        let mut brute: Vec<_> = net
            .segments()
            .filter(|s| {
                point_segment_distance(p, net.position(s.a), net.position(s.b)) <= radius
            })
            .map(|s| s.id)
            .collect();
        let mut fast_sorted = fast.clone();
        fast_sorted.sort();
        brute.sort();
        prop_assert_eq!(fast_sorted, brute);
    }

    #[test]
    fn generated_networks_are_valid(seed in 0u64..30, ratio in 1.1..1.9f64) {
        let net = net_for(seed, ratio);
        prop_assert!(net.is_connected());
        // No duplicate (a, b) segment pairs in either orientation.
        let mut pairs = std::collections::HashSet::new();
        for s in net.segments() {
            let key = if s.a < s.b { (s.a, s.b) } else { (s.b, s.a) };
            prop_assert!(pairs.insert(key), "duplicate segment between {} {}", s.a, s.b);
            // Length equals at least the chord.
            let chord = net.position(s.a).distance(net.position(s.b));
            prop_assert!(s.length >= chord - 1e-6);
            prop_assert!(s.speed_limit > 0.0);
        }
        // Segment ratio controls segment count exactly, up to the number
        // of 4-neighbour grid edges available (2rc − r − c for a 7×9 grid
        // with no hub diagonals).
        let grid_edges = 2 * 7 * 9 - 7 - 9;
        let expect = ((ratio * net.node_count() as f64).round() as usize)
            .max(net.node_count() - 1)
            .min(grid_edges);
        prop_assert_eq!(net.segment_count(), expect);
    }

    #[test]
    fn network_io_roundtrip(seed in 0u64..20) {
        let net = net_for(seed, 1.4);
        let mut buf = Vec::new();
        neat_rnet::io::write_network(&net, &mut buf).unwrap();
        let back = neat_rnet::io::read_network(buf.as_slice()).unwrap();
        prop_assert_eq!(net.node_count(), back.node_count());
        prop_assert_eq!(net.segment_count(), back.segment_count());
        let same = net.segments().zip(back.segments()).all(|(a, b)| a == b);
        prop_assert!(same);
    }
}
