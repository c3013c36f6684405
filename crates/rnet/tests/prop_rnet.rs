//! Property-based tests over the road-network substrate: the grid index
//! agrees with brute force, generated networks honour their invariants,
//! the network I/O round-trips arbitrary generated maps, and the flat
//! adjacency layout agrees with a scan of the segment list.

use neat_rnet::geometry::point_segment_distance;
use neat_rnet::netgen::{generate_grid_network, GridNetworkConfig};
use neat_rnet::{NodeId, Point, RoadNetwork, RoadNetworkBuilder, SegmentIndex};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

fn net_for(seed: u64, ratio: f64) -> neat_rnet::RoadNetwork {
    let mut cfg = GridNetworkConfig::small_test(7, 9);
    cfg.segment_ratio = ratio;
    generate_grid_network(&cfg, seed)
}

/// A random network over `nodes` junctions followed by `isolated`
/// junctions with no segment: random endpoint pairs (so some segments
/// run in parallel), a seeded share of explicit parallel twins, random
/// one-ways and lengths from the chord up to twice it.
fn random_network(seed: u64, nodes: usize, isolated: usize, segments: usize) -> RoadNetwork {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut b = RoadNetworkBuilder::new();
    let pos: Vec<Point> = (0..nodes + isolated)
        .map(|_| Point::new(rng.gen_range(0.0..500.0), rng.gen_range(0.0..500.0)))
        .collect();
    for &p in &pos {
        b.add_node(p);
    }
    let mut add = |rng: &mut ChaCha8Rng, x: usize, y: usize| {
        let length = pos[x].distance(pos[y]) * rng.gen_range(1.0..2.0);
        let (speed, oneway) = (rng.gen_range(5.0..30.0), rng.gen_bool(0.3));
        b.add_segment_detailed(NodeId::new(x), NodeId::new(y), length, speed, oneway)
            .unwrap();
    };
    for _ in 0..segments {
        let (x, y) = (rng.gen_range(0..nodes), rng.gen_range(0..nodes));
        if x == y {
            continue;
        }
        add(&mut rng, x, y);
        if rng.gen_bool(0.2) {
            // A parallel twin, either way round.
            let (x, y) = if rng.gen_bool(0.5) { (y, x) } else { (x, y) };
            add(&mut rng, x, y);
        }
    }
    b.build().unwrap()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn adjacency_matches_a_scan_of_the_segments(seed in 0u64..1000,
                                                nodes in 2usize..12,
                                                isolated in 0usize..3,
                                                segments in 0usize..30) {
        let net = random_network(seed, nodes, isolated, segments);
        let mut max_degree = 0;
        let mut arc_count = 0;
        for node in net.nodes() {
            let n = node.id;
            let want: Vec<_> = net
                .segments()
                .filter(|s| s.has_endpoint(n))
                .map(|s| s.id)
                .collect();
            let got = net.incident_segments(n);
            prop_assert_eq!(got, want.as_slice());
            prop_assert!(got.windows(2).all(|w| w[0] < w[1]), "row of {} sorted by id", n);
            prop_assert_eq!(net.degree(n), want.len());
            let arcs = net.incident_arcs(n);
            prop_assert_eq!(arcs.len(), got.len());
            for (&sid, arc) in got.iter().zip(arcs) {
                let seg = net.segment(sid).unwrap();
                prop_assert_eq!(arc.to, seg.other_endpoint(n));
                prop_assert_eq!(arc.length.to_bits(), seg.length.to_bits());
                prop_assert_eq!(arc.forward, seg.traversable_from(n));
            }
            if node.id.index() >= nodes {
                prop_assert!(got.is_empty(), "isolated {} has no arcs", n);
            }
            max_degree = max_degree.max(want.len());
            arc_count += want.len();
        }
        let st = net.stats();
        prop_assert_eq!(st.junctions, nodes + isolated);
        prop_assert_eq!(st.segments, net.segment_count());
        prop_assert_eq!(st.max_degree, max_degree);
        prop_assert_eq!(st.avg_degree, arc_count as f64 / (nodes + isolated) as f64);
        let total: f64 = net.segments().map(|s| s.length).sum();
        prop_assert_eq!(st.total_length_km, total / 1000.0);

        // Connectivity, by a flood fill over the segment list.
        let mut seen = vec![false; net.node_count()];
        seen[0] = true;
        let mut grew = true;
        while grew {
            grew = false;
            for s in net.segments() {
                if seen[s.a.index()] != seen[s.b.index()] {
                    seen[s.a.index()] = true;
                    seen[s.b.index()] = true;
                    grew = true;
                }
            }
        }
        prop_assert_eq!(net.is_connected(), seen.iter().all(|&v| v));

        // L(e): every other segment sharing an endpoint, each once.
        for s in net.segments() {
            let mut got = net.adjacent_segments(s.id);
            got.sort();
            let want: Vec<_> = net
                .segments()
                .filter(|o| o.id != s.id && (o.has_endpoint(s.a) || o.has_endpoint(s.b)))
                .map(|o| o.id)
                .collect();
            prop_assert_eq!(got, want);
        }
    }

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
